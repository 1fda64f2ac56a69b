// RADICAL-EnTK (Ensemble Toolkit) layer (paper §3.2, Fig. 3).
//
// EnTK is a higher-level abstraction over RADICAL-Pilot: an AppManager runs
// m concurrent Pipelines; each pipeline is a sequence of Stages; a stage is
// a set of tasks submitted together, and the next stage starts only when
// every task of the current stage completed (stage barrier). The DDMD
// mini-app maps each phase to four stages (Sim, Train, Select, Agent).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rp/session.hpp"
#include "rp/task.hpp"

namespace soma::entk {

struct Stage {
  std::string name;
  std::vector<rp::TaskDescription> tasks;
};

struct Pipeline {
  std::string name;
  std::vector<Stage> stages;
};

/// Timing record for one completed pipeline.
struct PipelineResult {
  std::string name;
  SimTime started;
  SimTime finished;
  std::vector<std::pair<SimTime, SimTime>> stage_spans;

  [[nodiscard]] double duration_seconds() const {
    return (finished - started).to_seconds();
  }
};

class AppManager {
 public:
  explicit AppManager(rp::Session& session);

  /// Add a pipeline before run(). Returns its index.
  std::size_t add_pipeline(Pipeline pipeline);

  /// Invoked when a stage of a pipeline completes, *before* the next stage
  /// is submitted. The adaptive experiment (paper Table 2) runs its SOMA
  /// analysis here, between phases.
  using StageCallback =
      std::function<void(std::size_t pipeline, std::size_t stage)>;
  void set_stage_callback(StageCallback callback) {
    stage_callback_ = std::move(callback);
  }

  /// Submit the first stage of every pipeline. `on_all_done` fires when all
  /// pipelines have finished. Requires session.agent_ready().
  void run(std::function<void()> on_all_done);

  [[nodiscard]] bool finished() const {
    return pipelines_finished_ == pipelines_.size();
  }
  [[nodiscard]] const std::vector<PipelineResult>& results() const {
    return results_;
  }

 private:
  struct PipelineState {
    Pipeline pipeline;
    std::size_t current_stage = 0;
    std::size_t tasks_outstanding = 0;
    PipelineResult result;
    std::optional<SimTime> stage_started;
  };

  void submit_stage(std::size_t pipeline_index);
  void on_task_complete(const rp::Task& task);

  rp::Session& session_;
  std::vector<PipelineState> pipelines_;
  /// Indexed by TaskId: the pipeline of an outstanding EnTK task, for
  /// completion routing; kNoPipeline for every other task.
  static constexpr std::size_t kNoPipeline = static_cast<std::size_t>(-1);
  std::vector<std::size_t> task_to_pipeline_;
  StageCallback stage_callback_;
  std::function<void()> on_all_done_;
  std::size_t pipelines_finished_ = 0;
  std::vector<PipelineResult> results_;
  bool running_ = false;
};

}  // namespace soma::entk
