// RP profile stream (the ".prof files" of paper §2.3.2).
//
// Every RP component appends timestamped records {time, subject, event}, the
// session's one timing record. The SOMA RP-monitor client periodically reads
// *new* records via a cursor, exactly as the real monitor daemon tails RP's
// profile files, and publishes workflow summaries to the SOMA service.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "rp/states.hpp"

namespace soma::rp {

/// A task's index in its session's task table: its submission order.
using TaskId = std::uint32_t;

/// The subject of the pilot's own records; every other subject is a task.
inline constexpr TaskId kPilotSubject = std::numeric_limits<TaskId>::max();

/// A time, a subject and a code: no heap block of its own.
struct ProfileRecord {
  SimTime time;
  TaskId subject;  ///< task id, or kPilotSubject
  Event event;
};
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(ProfileRecord) <= 16);
#endif

class ProfileStore {
 public:
  void record(SimTime time, TaskId subject, Event event) {
    records_.push_back(ProfileRecord{time, subject, event});
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const ProfileRecord& at(std::size_t index) const {
    check(index < records_.size(), "profile record index out of range");
    return records_[index];
  }

  /// Records appended at or after `cursor`; advances `cursor` past them.
  /// This is the monitor's incremental-read interface. The span is valid
  /// until the next record().
  [[nodiscard]] std::span<const ProfileRecord> read_since(
      std::size_t& cursor) const {
    const std::span<const ProfileRecord> all(records_);
    const auto fresh = all.subspan(std::min(cursor, all.size()));
    cursor = all.size();
    return fresh;
  }

 private:
  std::vector<ProfileRecord> records_;
};

}  // namespace soma::rp
