#include "raptor/raptor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace soma::raptor {
namespace {

constexpr double kWorkerCpuActivity = 0.9;
/// Master-side cost to route one call (serialize + pick worker).
constexpr Duration kDispatchOverhead = Duration::microseconds(200);
/// Channel latency master <-> worker.
constexpr Duration kChannelLatency = Duration::microseconds(100);

}  // namespace

RaptorMaster::RaptorMaster(rp::Session& session, RaptorConfig config)
    : session_(session), config_(config) {
  check(config_.workers > 0, "raptor: need at least one worker");
  check(config_.cores_per_worker > 0, "raptor: need >= 1 core per worker");
}

void RaptorMaster::start(std::function<void()> on_ready) {
  check(session_.agent_ready(), "raptor: agent not ready");
  check(!master_task_, "raptor: already started");
  on_ready_ = std::move(on_ready);

  // The master is a small long-running task (1 core).
  rp::TaskDescription master_desc;
  master_desc.uid = "raptor.master";
  master_desc.kind = rp::TaskKind::kWorker;
  master_desc.label = "raptor-master";
  master_desc.cores_per_rank = 1;
  master_desc.cpu_activity = 0.5;

  session_.add_task_start_listener([this](const rp::Task& task) {
    if (task.description().label == "raptor-worker") {
      if (++workers_ready_ == config_.workers) {
        if (on_ready_) on_ready_();
        dispatch_pending();
      }
    }
  });

  master_task_ = session_.submit(master_desc).id();

  for (int w = 0; w < config_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->index = w;
    worker->inbox = std::make_unique<comm::Channel<FunctionCall>>(
        session_.simulation(), "raptor.worker." + std::to_string(w),
        kChannelLatency);

    rp::TaskDescription desc;
    desc.uid = "raptor.worker." + std::to_string(w);
    desc.kind = rp::TaskKind::kWorker;
    desc.label = "raptor-worker";
    desc.cores_per_rank = config_.cores_per_worker;
    desc.cpu_activity = kWorkerCpuActivity;
    worker->task = session_.submit(desc).id();

    Worker* worker_ptr = worker.get();
    worker->inbox->set_consumer([this, worker_ptr](FunctionCall call) {
      // One slot runs the function for its duration, then reports back
      // (result path pays the channel latency too).
      session_.simulation().schedule(
          call.duration, [this, worker_ptr, call] {
            FunctionResult result;
            result.id = call.id;
            result.name = call.name;
            result.finished = session_.simulation().now();
            result.started = result.finished - call.duration;
            result.worker = worker_ptr->index;
            session_.simulation().schedule(
                kChannelLatency, [this, worker_ptr, result] {
                  on_worker_done(worker_ptr->index, result);
                });
          });
    });
    workers_.push_back(std::move(worker));
  }
}

void RaptorMaster::submit(FunctionCall call, ResultCallback on_result) {
  check(!shutdown_, "raptor: submit after shutdown");
  call.id = next_call_id_++;
  pending_.emplace_back(std::move(call), std::move(on_result));
  if (ready()) dispatch_pending();
}

void RaptorMaster::submit_many(int count, Duration duration,
                               ResultCallback on_result) {
  for (int i = 0; i < count; ++i) {
    FunctionCall call;
    call.name = "fn";
    call.duration = duration;
    submit(std::move(call), on_result);
  }
}

void RaptorMaster::dispatch_pending() {
  while (!pending_.empty()) {
    // Least-loaded worker with a free slot.
    Worker* best = nullptr;
    for (const auto& worker : workers_) {
      if (worker->busy_slots >= config_.cores_per_worker) continue;
      if (best == nullptr || worker->busy_slots < best->busy_slots) {
        best = worker.get();
      }
    }
    if (best == nullptr) return;  // all slots busy; retry on completion

    auto [call, callback] = std::move(pending_.front());
    pending_.pop_front();
    ++best->busy_slots;
    callbacks_.emplace(call.id, std::move(callback));

    // The master serializes dispatches (one routing decision at a time).
    const SimTime now = session_.simulation().now();
    master_busy_until_ =
        std::max(now, master_busy_until_) + kDispatchOverhead;
    Worker* target = best;
    FunctionCall routed = std::move(call);
    session_.simulation().schedule_at(
        master_busy_until_, [target, routed = std::move(routed)]() mutable {
          target->inbox->put(std::move(routed));
        });
  }
}

void RaptorMaster::on_worker_done(int worker_index,
                                  const FunctionResult& result) {
  --workers_[static_cast<std::size_t>(worker_index)]->busy_slots;
  ++completed_;

  const auto it = callbacks_.find(result.id);
  if (it != callbacks_.end()) {
    ResultCallback callback = std::move(it->second);
    callbacks_.erase(it);
    if (callback) callback(result);
  }
  dispatch_pending();
}

void RaptorMaster::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (const auto& worker : workers_) {
    session_.stop_task(worker->task);
  }
  if (master_task_) session_.stop_task(*master_task_);
}

}  // namespace soma::raptor
