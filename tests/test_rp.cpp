// Unit tests for the RADICAL-Pilot substrate: state machine, task records,
// profiles, the agent scheduler, the executor, and the session lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "rp/execution_model.hpp"
#include "rp/profile.hpp"
#include "rp/scheduler.hpp"
#include "rp/session.hpp"
#include "rp/states.hpp"
#include "rp/task.hpp"

namespace soma::rp {
namespace {

// ---------- states ----------

TEST(StatesTest, Names) {
  EXPECT_EQ(to_string(TaskState::kNew), "NEW");
  EXPECT_EQ(to_string(TaskState::kExecuting), "EXECUTING");
  EXPECT_EQ(to_string(TaskState::kDone), "DONE");
  EXPECT_EQ(to_string(PilotState::kActive), "ACTIVE");
}

TEST(StatesTest, ValidTransitions) {
  EXPECT_TRUE(is_valid_transition(TaskState::kNew, TaskState::kTmgrScheduling));
  EXPECT_TRUE(is_valid_transition(TaskState::kTmgrScheduling,
                                  TaskState::kAgentScheduling));
  EXPECT_TRUE(
      is_valid_transition(TaskState::kAgentScheduling, TaskState::kExecuting));
  EXPECT_TRUE(is_valid_transition(TaskState::kExecuting, TaskState::kDone));
  EXPECT_TRUE(is_valid_transition(TaskState::kExecuting, TaskState::kFailed));
  EXPECT_TRUE(is_valid_transition(TaskState::kNew, TaskState::kCanceled));
}

TEST(StatesTest, InvalidTransitions) {
  EXPECT_FALSE(is_valid_transition(TaskState::kNew, TaskState::kExecuting));
  EXPECT_FALSE(is_valid_transition(TaskState::kNew, TaskState::kDone));
  EXPECT_FALSE(is_valid_transition(TaskState::kDone, TaskState::kExecuting));
  EXPECT_FALSE(is_valid_transition(TaskState::kDone, TaskState::kCanceled));
  EXPECT_FALSE(
      is_valid_transition(TaskState::kExecuting, TaskState::kExecuting));
}

TEST(StatesTest, FinalStates) {
  EXPECT_TRUE(is_final(TaskState::kDone));
  EXPECT_TRUE(is_final(TaskState::kFailed));
  EXPECT_TRUE(is_final(TaskState::kCanceled));
  EXPECT_FALSE(is_final(TaskState::kExecuting));
}

// ---------- Task ----------

TEST(TaskTest, AdvanceRecordsHistory) {
  Task task(TaskDescription{.uid = "t"});
  EXPECT_EQ(task.state(), TaskState::kNew);
  task.advance(TaskState::kTmgrScheduling, SimTime::from_seconds(1.0));
  task.advance(TaskState::kAgentScheduling, SimTime::from_seconds(2.0));
  EXPECT_EQ(task.state(), TaskState::kAgentScheduling);
  EXPECT_EQ(task.state_entered(TaskState::kTmgrScheduling),
            SimTime::from_seconds(1.0));
  EXPECT_FALSE(task.state_entered(TaskState::kDone).has_value());
}

TEST(TaskTest, IllegalAdvanceThrows) {
  Task task(TaskDescription{.uid = "t"});
  EXPECT_THROW(task.advance(TaskState::kDone, SimTime::zero()), InternalError);
}

TEST(TaskTest, EventLog) {
  Task task(TaskDescription{.uid = "t"});
  task.record_event(events::kLaunchStart, SimTime::from_seconds(1.0));
  task.record_event(events::kRankStart, SimTime::from_seconds(2.0));
  task.record_event(events::kRankStop, SimTime::from_seconds(17.0));
  EXPECT_EQ(task.event_time(events::kRankStart), SimTime::from_seconds(2.0));
  EXPECT_FALSE(task.event_time(events::kExecStop).has_value());
  ASSERT_TRUE(task.rank_duration().has_value());
  EXPECT_EQ(*task.rank_duration(), Duration::seconds(15.0));
}

TEST(TaskTest, FirstOccurrenceWins) {
  Task task(TaskDescription{.uid = "t"});
  EXPECT_EQ(task.state_entered(TaskState::kNew), SimTime::zero());
  task.record_event(events::kRankStart, SimTime::from_seconds(2.0));
  task.record_event(events::kRankStart, SimTime::from_seconds(3.0));
  task.record_event("custom_event", SimTime::from_seconds(4.0));
  task.record_event("custom_event", SimTime::from_seconds(5.0));
  EXPECT_EQ(task.event_time(events::kRankStart), SimTime::from_seconds(2.0));
  EXPECT_EQ(task.event_time(std::string("rank_start")),
            SimTime::from_seconds(2.0));
  EXPECT_EQ(task.event_time("custom_event"), SimTime::from_seconds(4.0));
  EXPECT_FALSE(task.event_time("never_recorded").has_value());
  EXPECT_EQ(task.event_log().size(), 4u);
}

TEST(TaskTest, ProfileMirroring) {
  ProfileStore store;
  Task task(TaskDescription{.uid = "task.x"});
  task.attach_profile(&store);
  task.advance(TaskState::kTmgrScheduling, SimTime::from_seconds(1.0));
  task.record_event(events::kLaunchStart, SimTime::from_seconds(2.0));
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.at(0).uid, "task.x");
  EXPECT_EQ(store.at(0).event, "TMGR_SCHEDULING");
  EXPECT_EQ(store.at(1).event, "launch_start");
}

TEST(PlacementTest, NodesSpanned) {
  Placement placement;
  placement.ranks = {RankPlacement{.node = 2, .cores = {0}},
                     RankPlacement{.node = 0, .cores = {1}},
                     RankPlacement{.node = 2, .cores = {2}}};
  EXPECT_EQ(placement.nodes_spanned(), 2);
  EXPECT_EQ(placement.nodes(), (std::vector<NodeId>{0, 2}));
}

// ---------- ProfileStore ----------

TEST(ProfileStoreTest, CursorReads) {
  ProfileStore store;
  store.record(SimTime::from_seconds(1.0), "a", "x");
  store.record(SimTime::from_seconds(2.0), "b", "y");
  std::size_t cursor = 0;
  auto first = store.read_since(cursor);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(cursor, 2u);
  EXPECT_TRUE(store.read_since(cursor).empty());
  store.record(SimTime::from_seconds(3.0), "a", "z");
  auto second = store.read_since(cursor);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].event, "z");
  EXPECT_EQ(store.at(2).event, "z");
  EXPECT_THROW(store.at(99), InternalError);
}

// ---------- AgentScheduler ----------

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : platform(simulation, cluster::summit(4)),
        scheduler(simulation, platform, {0, 1, 2, 3}, Rng{5}) {
    scheduler.set_on_placed(
        [this](const std::shared_ptr<Task>& task) { placed.push_back(task); });
  }

  std::shared_ptr<Task> submit(TaskDescription description) {
    auto task = std::make_shared<Task>(std::move(description));
    task->advance(TaskState::kTmgrScheduling, simulation.now());
    task->advance(TaskState::kAgentScheduling, simulation.now());
    scheduler.submit(task);
    return task;
  }

  sim::Simulation simulation;
  cluster::Platform platform;
  AgentScheduler scheduler;
  std::vector<std::shared_ptr<Task>> placed;
};

TEST_F(SchedulerTest, SingleNodePlacement) {
  auto task = submit(TaskDescription{.uid = "t", .ranks = 10});
  simulation.run();
  ASSERT_EQ(placed.size(), 1u);
  ASSERT_TRUE(task->placement().has_value());
  EXPECT_EQ(task->placement()->ranks.size(), 10u);
  EXPECT_EQ(task->placement()->nodes_spanned(), 1);
  EXPECT_EQ(platform.node(0).busy_cores(), 10);
}

TEST_F(SchedulerTest, MultiNodeSplit) {
  // 100 ranks cannot fit on one 42-core node: continuous policy splits.
  auto task = submit(TaskDescription{.uid = "t", .ranks = 100});
  simulation.run();
  ASSERT_TRUE(task->placement().has_value());
  EXPECT_EQ(task->placement()->nodes_spanned(), 3);  // 42+42+16
  EXPECT_EQ(platform.node(0).busy_cores(), 42);
  EXPECT_EQ(platform.node(2).busy_cores(), 16);
}

TEST_F(SchedulerTest, CoresPerRankRespected) {
  auto task = submit(
      TaskDescription{.uid = "t", .ranks = 10, .cores_per_rank = 4});
  simulation.run();
  ASSERT_TRUE(task->placement().has_value());
  int total_cores = 0;
  for (const auto& rank : task->placement()->ranks) {
    total_cores += static_cast<int>(rank.cores.size());
  }
  EXPECT_EQ(total_cores, 40);
  EXPECT_EQ(task->placement()->nodes_spanned(), 1);  // 10*4=40 <= 42
}

TEST_F(SchedulerTest, GpuConstraintForcesSpread) {
  // 8 ranks x 1 GPU: only 6 GPUs per node.
  auto task = submit(TaskDescription{
      .uid = "t", .ranks = 8, .cores_per_rank = 1, .gpus_per_rank = 1});
  simulation.run();
  ASSERT_TRUE(task->placement().has_value());
  EXPECT_EQ(task->placement()->nodes_spanned(), 2);
  EXPECT_EQ(platform.node(0).busy_gpus(), 6);
  EXPECT_EQ(platform.node(1).busy_gpus(), 2);
}

TEST_F(SchedulerTest, WaitlistedUntilResourcesFree) {
  auto big = submit(TaskDescription{.uid = "big", .ranks = 168});  // 4 nodes
  auto second = submit(TaskDescription{.uid = "second", .ranks = 10});
  simulation.run();
  // Big fills the machine; second waits.
  EXPECT_EQ(placed.size(), 1u);
  EXPECT_EQ(scheduler.waitlist_size(), 1u);

  scheduler.task_completed(*big);
  simulation.run();
  EXPECT_EQ(placed.size(), 2u);
  EXPECT_TRUE(second->placement().has_value());
}

TEST_F(SchedulerTest, SmallTaskNotBlockedByHeadOfLine) {
  submit(TaskDescription{.uid = "huge", .ranks = 160});
  simulation.run();
  submit(TaskDescription{.uid = "wont-fit", .ranks = 160});
  auto small = submit(TaskDescription{.uid = "small", .ranks = 4});
  simulation.run();
  // "RP schedules a task as soon as there are enough free resources."
  EXPECT_TRUE(small->placement().has_value());
}

TEST_F(SchedulerTest, PinnedTaskGoesToItsNode) {
  auto task = submit(TaskDescription{
      .uid = "mon", .kind = TaskKind::kMonitor, .ranks = 1, .pinned_node = 2});
  simulation.run();
  ASSERT_TRUE(task->placement().has_value());
  EXPECT_EQ(task->placement()->ranks[0].node, 2);
}

TEST_F(SchedulerTest, PinnedToFullNodeWaits) {
  submit(TaskDescription{.uid = "filler", .ranks = 42});  // fills node 0
  simulation.run();
  auto pinned = submit(TaskDescription{
      .uid = "mon", .kind = TaskKind::kMonitor, .ranks = 1, .pinned_node = 0});
  simulation.run();
  EXPECT_FALSE(pinned->placement().has_value());
}

TEST_F(SchedulerTest, ExclusiveServiceNodesRefuseAppTasks) {
  scheduler.set_service_nodes({0, 1}, /*shared=*/false);
  auto task = submit(TaskDescription{.uid = "t", .ranks = 42});
  simulation.run();
  ASSERT_TRUE(task->placement().has_value());
  EXPECT_EQ(task->placement()->ranks[0].node, 2);  // skipped 0 and 1
}

TEST_F(SchedulerTest, SharedServiceNodesAcceptAppTasks) {
  scheduler.set_service_nodes({0, 1}, /*shared=*/true);
  auto task = submit(TaskDescription{.uid = "t", .ranks = 42});
  simulation.run();
  ASSERT_TRUE(task->placement().has_value());
  EXPECT_EQ(task->placement()->ranks[0].node, 0);
}

TEST_F(SchedulerTest, AgentNodesNeverRunAppTasksEvenShared) {
  scheduler.set_agent_nodes({0});
  scheduler.set_service_nodes({1}, /*shared=*/true);
  auto task = submit(TaskDescription{.uid = "t", .ranks = 42});
  simulation.run();
  ASSERT_TRUE(task->placement().has_value());
  EXPECT_EQ(task->placement()->ranks[0].node, 1);  // shared service node OK
}

TEST_F(SchedulerTest, ServiceTaskSpreadsAcrossServiceNodes) {
  scheduler.set_service_nodes({1, 2}, /*shared=*/false);
  auto service = submit(TaskDescription{
      .uid = "svc", .kind = TaskKind::kService, .ranks = 20});
  simulation.run();
  ASSERT_TRUE(service->placement().has_value());
  EXPECT_EQ(service->placement()->nodes_spanned(), 2);  // balanced, not packed
  EXPECT_EQ(platform.node(1).busy_cores(), 10);
  EXPECT_EQ(platform.node(2).busy_cores(), 10);
}

TEST_F(SchedulerTest, ServiceTaskTooLargeStaysQueued) {
  scheduler.set_service_nodes({1}, false);
  auto service = submit(TaskDescription{
      .uid = "svc", .kind = TaskKind::kService, .ranks = 60});
  simulation.run();
  EXPECT_FALSE(service->placement().has_value());
}

TEST_F(SchedulerTest, DecisionCostIsSerial) {
  // Two tasks placed back to back: second schedule_ok strictly after first.
  auto a = submit(TaskDescription{.uid = "a", .ranks = 1});
  auto b = submit(TaskDescription{.uid = "b", .ranks = 1});
  simulation.run();
  const auto ok_a = a->event_time(events::kScheduleOk);
  const auto ok_b = b->event_time(events::kScheduleOk);
  ASSERT_TRUE(ok_a && ok_b);
  EXPECT_GT(*ok_b, *ok_a);
}

TEST_F(SchedulerTest, SlowdownInflatesDecisionTime) {
  sim::Simulation sim2;
  cluster::Platform platform2(sim2, cluster::summit(4));
  AgentScheduler slow(sim2, platform2, {0, 1, 2, 3}, Rng{5});
  std::vector<std::shared_ptr<Task>> placed2;
  slow.set_on_placed(
      [&](const std::shared_ptr<Task>& t) { placed2.push_back(t); });
  slow.set_decision_slowdown([] { return 5.0; });

  auto fast_task = submit(TaskDescription{.uid = "f", .ranks = 1});
  auto slow_task = std::make_shared<Task>(TaskDescription{.uid = "s", .ranks = 1});
  slow_task->advance(TaskState::kTmgrScheduling, sim2.now());
  slow_task->advance(TaskState::kAgentScheduling, sim2.now());
  slow.submit(slow_task);

  simulation.run();
  sim2.run();
  const Duration fast_decision =
      *fast_task->event_time(events::kScheduleOk) -
      *fast_task->event_time(events::kSlotsClaimed);
  const Duration slow_decision =
      *slow_task->event_time(events::kScheduleOk) -
      *slow_task->event_time(events::kSlotsClaimed);
  EXPECT_GT(slow_decision.to_seconds(), 3.0 * fast_decision.to_seconds());
}

TEST_F(SchedulerTest, FreeAppResourcesExcludeExclusiveServiceNodes) {
  scheduler.set_service_nodes({3}, false);
  EXPECT_EQ(scheduler.free_app_cores(), 42 * 3);
  EXPECT_EQ(scheduler.free_app_gpus(), 6 * 3);
  scheduler.set_service_nodes({3}, true);
  EXPECT_EQ(scheduler.free_app_cores(), 42 * 4);
}

TEST_F(SchedulerTest, FreeAppResourcesExcludeAgentNodesEvenShared) {
  scheduler.set_agent_nodes({0});
  scheduler.set_service_nodes({3}, /*shared=*/true);
  EXPECT_EQ(scheduler.free_app_cores(), 42 * 3);
  EXPECT_EQ(scheduler.free_app_gpus(), 6 * 3);
  scheduler.set_service_nodes({3}, /*shared=*/false);
  EXPECT_EQ(scheduler.free_app_cores(), 42 * 2);
  EXPECT_EQ(scheduler.free_app_gpus(), 6 * 2);
}

TEST_F(SchedulerTest, SettingServiceNodesAgainReplacesTheSet) {
  scheduler.set_service_nodes({0, 1}, /*shared=*/false);
  scheduler.set_service_nodes({3}, /*shared=*/false);
  EXPECT_EQ(scheduler.free_app_cores(), 42 * 3);  // only node 3 is held back
  auto app = submit(TaskDescription{.uid = "app", .ranks = 42});
  auto service = submit(TaskDescription{
      .uid = "svc", .kind = TaskKind::kService, .ranks = 4});
  simulation.run();
  ASSERT_TRUE(app->placement().has_value());
  EXPECT_EQ(app->placement()->ranks[0].node, 0);
  ASSERT_TRUE(service->placement().has_value());
  EXPECT_EQ(service->placement()->nodes(), std::vector<NodeId>{3});
}

TEST_F(SchedulerTest, SettingAgentNodesAgainReplacesTheSet) {
  scheduler.set_agent_nodes({0});
  scheduler.set_agent_nodes({1});
  auto first = submit(TaskDescription{.uid = "first", .ranks = 42});
  auto second = submit(TaskDescription{.uid = "second", .ranks = 42});
  simulation.run();
  ASSERT_TRUE(first->placement() && second->placement());
  EXPECT_EQ(first->placement()->nodes(), std::vector<NodeId>{0});
  EXPECT_EQ(second->placement()->nodes(), std::vector<NodeId>{2});
}

// The placement a scan of every node plans: capacity of each eligible node
// in policy order, then ranks taken from that list in order.
std::vector<std::pair<NodeId, int>> full_scan_plan(
    const cluster::Platform& platform, std::vector<NodeId> order,
    PlacementPolicy policy, const TaskDescription& d) {
  if (policy == PlacementPolicy::kLeastUtilized) {
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return platform.node(a).utilization_now() <
             platform.node(b).utilization_now();
    });
  }
  std::vector<std::pair<NodeId, int>> capacity;
  for (NodeId id : order) {
    int fit = platform.node(id).free_cores() / d.cores_per_rank;
    if (d.gpus_per_rank > 0) {
      fit = std::min(fit, platform.node(id).free_gpus() / d.gpus_per_rank);
    }
    if (fit > 0) capacity.emplace_back(id, fit);
  }
  std::vector<std::pair<NodeId, int>> plan;
  int left = d.ranks;
  for (const auto& [id, fit] : capacity) {
    if (left == 0) break;
    plan.emplace_back(id, std::min(fit, left));
    left -= plan.back().second;
  }
  if (left > 0) plan.clear();
  return plan;
}

std::vector<std::pair<NodeId, int>> placed_plan(const Task& task) {
  std::vector<std::pair<NodeId, int>> plan;
  if (!task.placement()) return plan;
  for (const auto& rank : task.placement()->ranks) {
    if (plan.empty() || plan.back().first != rank.node) {
      plan.emplace_back(rank.node, 0);
    }
    ++plan.back().second;
  }
  return plan;
}

TEST(SchedulerPlacementTest, StoppingTheScanEarlyPlacesLikeAFullScan) {
  for (const auto policy :
       {PlacementPolicy::kContinuous, PlacementPolicy::kLeastUtilized}) {
    SCOPED_TRACE(policy == PlacementPolicy::kContinuous ? "continuous"
                                                        : "least-utilized");
    sim::Simulation simulation;
    cluster::Platform platform(simulation, cluster::summit(6));
    const std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5};
    AgentScheduler scheduler(simulation, platform, nodes, Rng{5},
                             SchedulerConfig{.policy = policy});
    // Partly filled, with a different utilization on every node.
    const std::pair<int, double> fill[] = {
        {30, 0.9}, {10, 0.1}, {40, 0.5}, {0, 0.0}, {25, 0.3}, {41, 0.7}};
    for (NodeId id : nodes) {
      const auto [cores, activity] = fill[id];
      if (cores > 0) {
        ASSERT_TRUE(platform.node(id).allocate_cores(cores, "filler",
                                                     activity));
      }
    }
    const TaskDescription shapes[] = {
        {.uid = "one", .ranks = 1},
        {.uid = "spans", .ranks = 50},
        {.uid = "wide", .ranks = 3, .cores_per_rank = 8},
        {.uid = "gpus", .ranks = 9, .cores_per_rank = 2, .gpus_per_rank = 1},
        {.uid = "rest", .ranks = 40},
        {.uid = "too-big", .ranks = 500},
    };
    for (const TaskDescription& shape : shapes) {
      SCOPED_TRACE(shape.uid);
      const auto expected = full_scan_plan(platform, nodes, policy, shape);
      auto task = std::make_shared<Task>(shape);
      task->advance(TaskState::kTmgrScheduling, simulation.now());
      task->advance(TaskState::kAgentScheduling, simulation.now());
      scheduler.submit(task);  // places synchronously when it fits
      EXPECT_EQ(placed_plan(*task), expected);
    }
  }
}

TEST_F(SchedulerTest, CompletionReleasesEverything) {
  auto task = submit(TaskDescription{.uid = "t",
                                     .ranks = 4,
                                     .cores_per_rank = 2,
                                     .gpus_per_rank = 1,
                                     .mem_per_rank_mib = 100.0});
  simulation.run();
  ASSERT_TRUE(task->placement().has_value());
  const double ram_before = platform.node(0).available_ram_mib();
  scheduler.task_completed(*task);
  EXPECT_EQ(platform.node(0).busy_cores(), 0);
  EXPECT_EQ(platform.node(0).busy_gpus(), 0);
  EXPECT_GT(platform.node(0).available_ram_mib(), ram_before);
}

// ---------- Session (integration of client/agent/executor) ----------

rp::SessionConfig small_session_config() {
  rp::SessionConfig config;
  config.platform = cluster::summit(3);
  config.pilot.nodes = 3;
  config.seed = 11;
  return config;
}

TEST(SessionTest, BootstrapSequence) {
  Session session(small_session_config());
  EXPECT_FALSE(session.agent_ready());
  bool ready = false;
  session.start([&] { ready = true; });
  session.run();
  EXPECT_TRUE(ready);
  EXPECT_TRUE(session.agent_ready());
  EXPECT_GT(session.agent_ready_at(), session.pilot_granted_at());
  EXPECT_EQ(session.pilot_nodes().size(), 3u);
  EXPECT_EQ(session.agent_node_ids(), (std::vector<NodeId>{0}));
  EXPECT_EQ(session.worker_node_ids(), (std::vector<NodeId>{1, 2}));
}

TEST(SessionTest, AgentOccupiesCoresOnAgentNode) {
  Session session(small_session_config());
  session.start([] {});
  session.run();
  EXPECT_EQ(session.platform().node(0).busy_cores(),
            session.config().agent_cores);
}

TEST(SessionTest, TaskLifecycleEventsInListingOrder) {
  Session session(small_session_config());
  std::shared_ptr<Task> task;
  session.start([&] {
    task = session.submit(TaskDescription{
        .uid = "t", .ranks = 4, .fixed_duration = Duration::seconds(15.0)});
  });
  session.run();

  ASSERT_EQ(task->state(), TaskState::kDone);
  // Listing 1 order within EXECUTING.
  const char* expected[] = {"launch_start", "exec_start", "rank_start",
                            "rank_stop",    "exec_stop",  "launch_stop"};
  SimTime previous = SimTime::zero();
  for (const char* name : expected) {
    const auto at = task->event_time(name);
    ASSERT_TRUE(at.has_value()) << name;
    EXPECT_GE(*at, previous) << name;
    previous = *at;
  }
  EXPECT_NEAR(task->rank_duration()->to_seconds(), 15.0, 0.1);
}

TEST(SessionTest, StateMachineProgression) {
  Session session(small_session_config());
  std::shared_ptr<Task> task;
  session.start([&] {
    task = session.submit(TaskDescription{.uid = "t", .ranks = 1});
  });
  session.run();
  ASSERT_TRUE(task->state_entered(TaskState::kTmgrScheduling).has_value());
  ASSERT_TRUE(task->state_entered(TaskState::kAgentScheduling).has_value());
  ASSERT_TRUE(task->state_entered(TaskState::kExecuting).has_value());
  ASSERT_TRUE(task->state_entered(TaskState::kDone).has_value());
  EXPECT_LT(*task->state_entered(TaskState::kTmgrScheduling),
            *task->state_entered(TaskState::kAgentScheduling));
  EXPECT_LT(*task->state_entered(TaskState::kAgentScheduling),
            *task->state_entered(TaskState::kExecuting));
}

TEST(SessionTest, ServiceTaskRunsUntilStopped) {
  Session session(small_session_config());
  std::shared_ptr<Task> service;
  session.start([&] {
    service = session.submit(TaskDescription{
        .uid = "svc", .kind = TaskKind::kService, .ranks = 2});
    // Stop it after 100 s.
    session.simulation().schedule(Duration::seconds(100.0), [&] {
      session.stop_task("svc");
      session.finalize();
    });
  });
  session.run();
  EXPECT_EQ(service->state(), TaskState::kDone);
  EXPECT_GT(service->rank_duration()->to_seconds(), 90.0);
}

TEST(SessionTest, CompletionListenersAllFire) {
  Session session(small_session_config());
  int calls = 0;
  session.add_task_completion_listener(
      [&](const std::shared_ptr<Task>&) { ++calls; });
  session.add_task_completion_listener(
      [&](const std::shared_ptr<Task>&) { ++calls; });
  session.start([&] {
    session.submit(TaskDescription{.uid = "t", .ranks = 1});
  });
  session.run();
  EXPECT_EQ(calls, 2);
}

TEST(SessionTest, StartListenerFiresAtRankStart) {
  Session session(small_session_config());
  SimTime started;
  std::shared_ptr<Task> task;
  session.add_task_start_listener([&](const std::shared_ptr<Task>& t) {
    started = session.simulation().now();
    (void)t;
  });
  session.start([&] {
    task = session.submit(TaskDescription{.uid = "t", .ranks = 1});
  });
  session.run();
  EXPECT_EQ(started, *task->event_time(events::kRankStart));
}

// A listener registered while listeners are being dispatched misses the
// event in progress and fires from the next one on. The listeners capture
// one pointer, so std::function stores them inline: a listener container
// that moved its elements while one runs would free the running closure,
// which ASan reports. Registering 64 grows the container mid-dispatch.
struct LateListeners {
  Session* session = nullptr;
  std::string registered_by;
  std::vector<std::string> calls;
};

TEST(SessionTest, StartListenerAddedDuringDispatchFiresFromNextStart) {
  Session session(small_session_config());
  LateListeners late{.session = &session};
  session.add_task_start_listener(
      [late = &late](const std::shared_ptr<Task>& task) {
        if (!late->registered_by.empty()) return;
        late->registered_by = task->uid();
        for (int i = 0; i < 64; ++i) {
          late->session->add_task_start_listener(
              [late](const std::shared_ptr<Task>& t) {
                late->calls.push_back(t->uid());
              });
        }
      });
  session.start([&] {
    session.submit(TaskDescription{.uid = "first", .ranks = 1});
    session.submit(TaskDescription{.uid = "second", .ranks = 1});
  });
  session.run();
  const std::string other =
      late.registered_by == "first" ? "second" : "first";
  ASSERT_EQ(late.calls.size(), 64u);
  for (const std::string& uid : late.calls) EXPECT_EQ(uid, other);
}

TEST(SessionTest, CompletionListenerAddedDuringDispatchFiresFromNextCompletion) {
  Session session(small_session_config());
  LateListeners late{.session = &session};
  session.add_task_completion_listener(
      [late = &late](const std::shared_ptr<Task>& task) {
        if (!late->registered_by.empty()) return;
        late->registered_by = task->uid();
        for (int i = 0; i < 64; ++i) {
          late->session->add_task_completion_listener(
              [late](const std::shared_ptr<Task>& t) {
                late->calls.push_back(t->uid());
              });
        }
      });
  session.start([&] {
    session.submit(TaskDescription{
        .uid = "first", .ranks = 1, .fixed_duration = Duration::seconds(1.0)});
    session.submit(TaskDescription{.uid = "second",
                                   .ranks = 1,
                                   .fixed_duration = Duration::seconds(5.0)});
  });
  session.run();
  const std::string other =
      late.registered_by == "first" ? "second" : "first";
  ASSERT_EQ(late.calls.size(), 64u);
  for (const std::string& uid : late.calls) EXPECT_EQ(uid, other);
}

TEST(SessionTest, FindTaskByUid) {
  Session session(small_session_config());
  session.start([&] {
    const auto a = session.submit(TaskDescription{.uid = "a", .ranks = 1});
    const auto b = session.submit(TaskDescription{.ranks = 1});
    EXPECT_EQ(session.find_task("a"), a);
    EXPECT_EQ(session.find_task(b->uid()), b);
    EXPECT_EQ(session.find_task("missing"), nullptr);
  });
  session.run();
}

TEST(SessionTest, DuplicateUidRejected) {
  Session session(small_session_config());
  session.start([&] {
    session.submit(TaskDescription{.uid = "dup", .ranks = 1});
    EXPECT_THROW(session.submit(TaskDescription{.uid = "dup", .ranks = 1}),
                 ConfigError);
  });
  session.run();
}

TEST(SessionTest, AutoUidAssigned) {
  Session session(small_session_config());
  std::shared_ptr<Task> task;
  session.start([&] { task = session.submit(TaskDescription{.ranks = 1}); });
  session.run();
  EXPECT_EQ(task->uid(), "task.000000");
}

TEST(SessionTest, SubmitBeforeReadyThrows) {
  Session session(small_session_config());
  EXPECT_THROW(session.submit(TaskDescription{.ranks = 1}), InternalError);
}

TEST(SessionTest, InvalidConfigsRejected) {
  rp::SessionConfig config = small_session_config();
  config.pilot.nodes = 5;  // platform has 3
  EXPECT_THROW(Session{config}, ConfigError);
  config = small_session_config();
  config.agent_nodes = 3;  // no worker nodes left
  EXPECT_THROW(Session{config}, ConfigError);
}

TEST(SessionTest, NodeNoiseStretchesExecution) {
  Session fast_session(small_session_config());
  Session slow_session(small_session_config());
  std::shared_ptr<Task> fast_task, slow_task;
  fast_session.start([&] {
    fast_task = fast_session.submit(TaskDescription{
        .uid = "t", .ranks = 1, .fixed_duration = Duration::seconds(100.0)});
  });
  slow_session.start([&] {
    for (NodeId node : slow_session.worker_node_ids()) {
      slow_session.executor().set_node_noise(node, 0.10);
    }
    slow_task = slow_session.submit(TaskDescription{
        .uid = "t", .ranks = 1, .fixed_duration = Duration::seconds(100.0)});
  });
  fast_session.run();
  slow_session.run();
  EXPECT_NEAR(slow_task->rank_duration()->to_seconds(),
              fast_task->rank_duration()->to_seconds() * 1.10, 1e-6);
}

TEST(SessionTest, DataStagingPhases) {
  Session session(small_session_config());
  std::shared_ptr<Task> task;
  session.start([&] {
    TaskDescription d;
    d.uid = "staged";
    d.ranks = 2;
    d.fixed_duration = Duration::seconds(10.0);
    d.input_staging_mib = 1000.0;   // 2 s at 500 MiB/s + latency
    d.output_staging_mib = 250.0;   // 0.5 s
    task = session.submit(d);
  });
  session.run();

  ASSERT_EQ(task->state(), TaskState::kDone);
  const auto in_start = task->event_time(events::kStageInStart);
  const auto in_stop = task->event_time(events::kStageInStop);
  const auto out_start = task->event_time(events::kStageOutStart);
  const auto out_stop = task->event_time(events::kStageOutStop);
  ASSERT_TRUE(in_start && in_stop && out_start && out_stop);
  EXPECT_NEAR((*in_stop - *in_start).to_seconds(), 2.05, 1e-6);
  EXPECT_NEAR((*out_stop - *out_start).to_seconds(), 0.55, 1e-6);
  // Ordering: stage-in fully precedes the launch; stage-out follows
  // launch_stop; DONE only after stage-out.
  EXPECT_LE(*in_stop, *task->event_time(events::kLaunchStart));
  EXPECT_GE(*out_start, *task->event_time(events::kLaunchStop));
  EXPECT_EQ(*task->state_entered(TaskState::kDone), *out_stop);
}

TEST(SessionTest, NoStagingSkipsPhases) {
  Session session(small_session_config());
  std::shared_ptr<Task> task;
  session.start([&] {
    task = session.submit(TaskDescription{.uid = "t", .ranks = 1});
  });
  session.run();
  EXPECT_FALSE(task->event_time(events::kStageInStart).has_value());
  EXPECT_FALSE(task->event_time(events::kStageOutStart).has_value());
}

TEST(SessionTest, StagingHoldsResources) {
  // The slots are claimed during stage-in (the node is reserved while data
  // moves), so a second task must wait for staging + execution.
  Session session(small_session_config());
  std::shared_ptr<Task> staged, second;
  session.start([&] {
    TaskDescription d;
    d.uid = "staged";
    d.ranks = 84;  // whole machine
    d.fixed_duration = Duration::seconds(10.0);
    d.input_staging_mib = 5000.0;  // 10 s
    staged = session.submit(d);
    second = session.submit(TaskDescription{.uid = "second", .ranks = 84});
  });
  session.run();
  EXPECT_GE(*second->event_time(events::kLaunchStart),
            *staged->event_time(events::kLaunchStop));
}

TEST(SessionTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Session session(small_session_config());
    std::vector<std::shared_ptr<Task>> tasks;
    session.start([&] {
      for (int i = 0; i < 5; ++i) {
        tasks.push_back(session.submit(TaskDescription{
            .ranks = 8, .fixed_duration = Duration::seconds(20.0)}));
      }
    });
    session.run();
    std::vector<std::int64_t> stamps;
    for (const auto& task : tasks) {
      stamps.push_back(task->event_time(events::kRankStop)->nanos());
    }
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace soma::rp
