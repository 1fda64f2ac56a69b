#include "rp/profile.hpp"

#include "common/error.hpp"

namespace soma::rp {

void ProfileStore::record(SimTime time, std::string_view uid,
                          std::string_view event) {
  records_.push_back(
      ProfileRecord{time, std::string(uid), std::string(event)});
}

const ProfileRecord& ProfileStore::at(std::size_t index) const {
  check(index < records_.size(), "profile record index out of range");
  return records_[index];
}

std::vector<ProfileRecord> ProfileStore::read_since(
    std::size_t& cursor) const {
  std::vector<ProfileRecord> out;
  if (cursor < records_.size()) {
    out.assign(records_.begin() + static_cast<std::ptrdiff_t>(cursor),
               records_.end());
    cursor = records_.size();
  }
  return out;
}

}  // namespace soma::rp
