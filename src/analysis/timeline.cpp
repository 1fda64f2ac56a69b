#include "analysis/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace soma::analysis {

char state_glyph(CoreState state) {
  switch (state) {
    case CoreState::kIdle: return '.';
    case CoreState::kBootstrap: return 'b';
    case CoreState::kScheduling: return 's';
    case CoreState::kRunning: return '#';
  }
  return '?';
}

UtilizationTimeline UtilizationTimeline::build(
    rp::Session& session, const std::vector<NodeId>& nodes) {
  UtilizationTimeline timeline;
  timeline.begin_ = session.pilot_granted_at();
  const SimTime ready = session.agent_ready_at();

  // Index the requested cores.
  std::map<std::pair<NodeId, CoreId>, std::size_t> index;
  for (NodeId node_id : nodes) {
    const auto& node = session.platform().node(node_id);
    for (int c = 0; c < node.usable_cores(); ++c) {
      CoreTrack track;
      track.node = node_id;
      track.core = static_cast<CoreId>(c);
      // Bootstrap band covers every core until the agent is ready.
      track.segments.push_back(
          CoreSegment{timeline.begin_, ready, CoreState::kBootstrap});
      index.emplace(std::make_pair(node_id, static_cast<CoreId>(c)),
                    timeline.cores_.size());
      timeline.cores_.push_back(std::move(track));
    }
  }

  SimTime last_event = ready;
  for (const rp::Task& task : session.tasks()) {
    if (!task.placement()) continue;
    const auto claimed = task.event_time(rp::Event::kSlotsClaimed);
    const auto rank_start = task.event_time(rp::Event::kRankStart);
    auto rank_stop = task.event_time(rp::Event::kRankStop);
    if (!claimed) continue;

    for (const auto& rank : task.placement()->ranks) {
      for (CoreId core : rank.cores) {
        const auto it = index.find({rank.node, core});
        if (it == index.end()) continue;  // core outside requested nodes
        CoreTrack& track = timeline.cores_[it->second];
        if (rank_start && *rank_start > *claimed) {
          track.segments.push_back(
              CoreSegment{*claimed, *rank_start, CoreState::kScheduling});
        }
        if (rank_start) {
          const SimTime stop = rank_stop.value_or(SimTime::max());
          track.segments.push_back(
              CoreSegment{*rank_start, stop, CoreState::kRunning});
        }
      }
    }
    if (rank_stop) last_event = std::max(last_event, *rank_stop);
    const auto launch_stop = task.event_time(rp::Event::kLaunchStop);
    if (launch_stop) last_event = std::max(last_event, *launch_stop);
  }
  timeline.end_ = last_event;

  // Clamp open-ended segments and sort each track.
  for (auto& track : timeline.cores_) {
    for (auto& segment : track.segments) {
      segment.end = std::min(segment.end, timeline.end_);
    }
    std::sort(track.segments.begin(), track.segments.end(),
              [](const CoreSegment& a, const CoreSegment& b) {
                return a.begin < b.begin;
              });
  }
  return timeline;
}

double UtilizationTimeline::fraction(CoreState state) const {
  const double total =
      (end_ - begin_).to_seconds() * static_cast<double>(cores_.size());
  if (total <= 0.0) return 0.0;
  double in_state = 0.0;
  if (state == CoreState::kIdle) {
    // Idle = total minus everything else.
    double other = 0.0;
    for (const auto& track : cores_) {
      for (const auto& segment : track.segments) {
        other += std::max(0.0, (segment.end - segment.begin).to_seconds());
      }
    }
    in_state = total - other;
  } else {
    for (const auto& track : cores_) {
      for (const auto& segment : track.segments) {
        if (segment.state == state) {
          in_state += std::max(0.0, (segment.end - segment.begin).to_seconds());
        }
      }
    }
  }
  return std::max(0.0, in_state) / total;
}

CoreState UtilizationTimeline::state_at(int core_row, SimTime t) const {
  check(core_row >= 0 && static_cast<std::size_t>(core_row) < cores_.size(),
        "timeline: core row out of range");
  const CoreTrack& track = cores_[static_cast<std::size_t>(core_row)];
  for (const auto& segment : track.segments) {
    if (t >= segment.begin && t < segment.end) return segment.state;
  }
  return CoreState::kIdle;
}

std::string UtilizationTimeline::render(int cols, int max_rows) const {
  check(cols > 0 && max_rows > 0, "timeline: bad render dimensions");
  std::ostringstream out;
  const double span = (end_ - begin_).to_seconds();
  const int rows = std::min<int>(max_rows, core_count());
  const double row_stride =
      static_cast<double>(core_count()) / static_cast<double>(rows);

  out << "core timeline [" << begin_.to_seconds() << "s .. "
      << end_.to_seconds() << "s]  b=bootstrap s=scheduling #=running .=idle\n";
  for (int row = 0; row < rows; ++row) {
    const int core_row = static_cast<int>(row * row_stride);
    const CoreTrack& track = cores_[static_cast<std::size_t>(core_row)];
    char label[32];
    std::snprintf(label, sizeof(label), "n%02d/c%02d ", track.node,
                  track.core);
    out << label;
    for (int col = 0; col < cols; ++col) {
      const double mid = (static_cast<double>(col) + 0.5) /
                         static_cast<double>(cols) * span;
      out << state_glyph(state_at(core_row, begin_ + Duration::seconds(mid)));
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace soma::analysis
