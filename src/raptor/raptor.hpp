// RAPTOR-like function-task subsystem (paper §2.1).
//
// "RP utilizes a dedicated subsystem called RAPTOR to execute Python
// functions at a very large scale... RP supports the concurrent execution of
// heterogeneous executable and function tasks."
//
// Function tasks are far too small for the pilot's task path (a scheduler
// decision + launcher spawn per task would dominate). RAPTOR instead runs a
// master and a pool of long-lived workers as RP tasks; function tasks flow
// master -> worker over component channels with only a dispatch overhead,
// and each worker executes up to cores_per_worker functions concurrently.
//
// The throughput gap between this path and the executable-task path is the
// subsystem's reason to exist; tests and the RAPTOR bench measure it.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "rp/session.hpp"

namespace soma::raptor {

/// One function invocation.
struct FunctionCall {
  std::uint64_t id = 0;
  std::string name;
  Duration duration = Duration::milliseconds(100);
};

struct FunctionResult {
  std::uint64_t id = 0;
  std::string name;
  SimTime started;
  SimTime finished;
  int worker = -1;
};

struct RaptorConfig {
  int workers = 2;
  int cores_per_worker = 8;       ///< concurrent functions per worker
};

class RaptorMaster {
 public:
  using ResultCallback = std::function<void(const FunctionResult&)>;

  RaptorMaster(rp::Session& session, RaptorConfig config = {});

  /// Submit the master + worker RP tasks; `on_ready` fires when every
  /// worker is up. Requires session.agent_ready().
  void start(std::function<void()> on_ready);

  /// Queue a function for execution. Valid once started; calls submitted
  /// before readiness are buffered.
  void submit(FunctionCall call, ResultCallback on_result = nullptr);

  /// Convenience: submit `count` copies of a homogeneous function.
  void submit_many(int count, Duration duration,
                   ResultCallback on_result = nullptr);

  /// Stop workers and the master (releases their RP resources).
  void shutdown();

  [[nodiscard]] bool ready() const { return workers_ready_ == config_.workers; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t submitted() const { return next_call_id_ - 1; }

 private:
  struct Worker {
    int index = -1;
    rp::TaskId task = 0;
    int busy_slots = 0;
    std::unique_ptr<comm::Channel<FunctionCall>> inbox;
  };

  void dispatch_pending();
  void on_worker_done(int worker_index, const FunctionResult& result);

  rp::Session& session_;
  RaptorConfig config_;
  std::function<void()> on_ready_;
  std::optional<rp::TaskId> master_task_;
  std::vector<std::unique_ptr<Worker>> workers_;
  int workers_ready_ = 0;
  bool shutdown_ = false;

  std::uint64_t next_call_id_ = 1;
  std::deque<std::pair<FunctionCall, ResultCallback>> pending_;
  std::unordered_map<std::uint64_t, ResultCallback> callbacks_;
  SimTime master_busy_until_;
  std::uint64_t completed_ = 0;
};

}  // namespace soma::raptor
