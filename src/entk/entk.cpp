#include "entk/entk.hpp"

#include <utility>

#include "common/error.hpp"

namespace soma::entk {

AppManager::AppManager(rp::Session& session) : session_(session) {
  session_.add_task_completion_listener(
      [this](const rp::Task& task) { on_task_complete(task); });
}

std::size_t AppManager::add_pipeline(Pipeline pipeline) {
  check(!running_, "cannot add pipelines after run()");
  check(!pipeline.stages.empty(), "pipeline needs at least one stage");
  for (const auto& stage : pipeline.stages) {
    check(!stage.tasks.empty(), "stage needs at least one task");
  }
  PipelineState state;
  state.pipeline = std::move(pipeline);
  state.result.name = state.pipeline.name;
  pipelines_.push_back(std::move(state));
  return pipelines_.size() - 1;
}

void AppManager::run(std::function<void()> on_all_done) {
  check(!running_, "AppManager already running");
  check(!pipelines_.empty(), "no pipelines to run");
  running_ = true;
  on_all_done_ = std::move(on_all_done);
  for (std::size_t p = 0; p < pipelines_.size(); ++p) {
    pipelines_[p].result.started = session_.simulation().now();
    submit_stage(p);
  }
}

void AppManager::submit_stage(std::size_t pipeline_index) {
  PipelineState& state = pipelines_[pipeline_index];
  const Stage& stage = state.pipeline.stages[state.current_stage];
  state.tasks_outstanding = stage.tasks.size();
  state.stage_started = session_.simulation().now();
  for (const auto& description : stage.tasks) {
    session_.submit(description);  // its id is tasks().size() - 1
    task_to_pipeline_.resize(session_.tasks().size(), kNoPipeline);
    task_to_pipeline_.back() = pipeline_index;
  }
}

void AppManager::on_task_complete(const rp::Task& task) {
  if (task.id() >= task_to_pipeline_.size()) return;
  const std::size_t pipeline_index =
      std::exchange(task_to_pipeline_[task.id()], kNoPipeline);
  if (pipeline_index == kNoPipeline) return;  // not an EnTK-managed task

  PipelineState& state = pipelines_[pipeline_index];
  check(state.tasks_outstanding > 0, "entk: completion underflow");
  if (--state.tasks_outstanding > 0) return;

  // Stage barrier reached.
  const SimTime now = session_.simulation().now();
  state.result.stage_spans.emplace_back(*state.stage_started, now);
  if (stage_callback_) stage_callback_(pipeline_index, state.current_stage);

  if (++state.current_stage < state.pipeline.stages.size()) {
    submit_stage(pipeline_index);
    return;
  }

  // Pipeline done.
  state.result.finished = now;
  results_.push_back(state.result);
  if (++pipelines_finished_ == pipelines_.size() && on_all_done_) {
    on_all_done_();
  }
}

}  // namespace soma::entk
