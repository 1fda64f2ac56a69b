// RP profile stream (the ".prof files" of paper §2.3.2).
//
// Every RP component appends timestamped records {time, task uid, event}.
// The SOMA RP-monitor client periodically reads *new* records via a cursor,
// exactly as the real monitor daemon tails RP's profile files, and publishes
// workflow summaries to the SOMA service.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace soma::rp {

struct ProfileRecord {
  SimTime time;
  std::string uid;    ///< task or pilot uid
  std::string event;  ///< event or state name
};

class ProfileStore {
 public:
  void record(SimTime time, std::string_view uid, std::string_view event);

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const ProfileRecord& at(std::size_t index) const;

  /// Records appended at or after `cursor`; advances `cursor` past them.
  /// This is the monitor's incremental-read interface.
  [[nodiscard]] std::vector<ProfileRecord> read_since(
      std::size_t& cursor) const;

 private:
  std::vector<ProfileRecord> records_;
};

}  // namespace soma::rp
