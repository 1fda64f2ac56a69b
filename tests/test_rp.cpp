// Unit tests for the RADICAL-Pilot substrate: state machine, task records,
// profiles, the agent scheduler, the executor, and the session lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
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
  EXPECT_EQ(to_string(Event::kPilotActive), "ACTIVE");
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
  task.record_event(Event::kLaunchStart, SimTime::from_seconds(1.0));
  task.record_event(Event::kRankStart, SimTime::from_seconds(2.0));
  task.record_event(Event::kRankStop, SimTime::from_seconds(17.0));
  EXPECT_EQ(task.event_time(Event::kRankStart), SimTime::from_seconds(2.0));
  EXPECT_FALSE(task.event_time(Event::kExecStop).has_value());
  ASSERT_TRUE(task.rank_duration().has_value());
  EXPECT_EQ(*task.rank_duration(), Duration::seconds(15.0));
}

TEST(TaskTest, FirstOccurrenceWins) {
  Task task(TaskDescription{.uid = "t"});
  EXPECT_EQ(task.state_entered(TaskState::kNew), SimTime::zero());
  task.record_event(Event::kRankStart, SimTime::from_seconds(2.0));
  task.record_event(Event::kRankStart, SimTime::from_seconds(3.0));
  EXPECT_EQ(task.event_time(Event::kRankStart), SimTime::from_seconds(2.0));
  EXPECT_FALSE(task.event_time(Event::kExecStop).has_value());
  EXPECT_EQ(task.records(), 2u);
}

TEST(TaskTest, ProfileMirroring) {
  ProfileStore store;
  Task task(TaskDescription{.uid = "task.x"}, 7, &store);
  task.advance(TaskState::kTmgrScheduling, SimTime::from_seconds(1.0));
  task.record_event(Event::kLaunchStart, SimTime::from_seconds(2.0));
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.at(0).subject, 7u);
  EXPECT_EQ(to_string(store.at(0).event), "TMGR_SCHEDULING");
  EXPECT_EQ(to_string(store.at(1).event), "launch_start");
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
  store.record(SimTime::from_seconds(1.0), 0, Event::kExecStart);
  store.record(SimTime::from_seconds(2.0), 1, Event::kRankStart);
  std::size_t cursor = 0;
  auto first = store.read_since(cursor);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(cursor, 2u);
  EXPECT_TRUE(store.read_since(cursor).empty());
  store.record(SimTime::from_seconds(3.0), kPilotSubject, Event::kPilotActive);
  auto second = store.read_since(cursor);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(to_string(second[0].event), "ACTIVE");
  EXPECT_EQ(store.at(2).subject, kPilotSubject);
  EXPECT_THROW(store.at(99), InternalError);
}

// ---------- AgentScheduler ----------

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : platform(simulation, cluster::summit(4)),
        scheduler(simulation, platform, tasks, {0, 1, 2, 3}, Rng{5}) {
    scheduler.set_on_placed([this](TaskId id) { placed.push_back(id); });
  }

  Task* submit(TaskDescription description) {
    Task& task = tasks.emplace_back(std::move(description),
                                    static_cast<TaskId>(tasks.size()));
    task.advance(TaskState::kTmgrScheduling, simulation.now());
    task.advance(TaskState::kAgentScheduling, simulation.now());
    scheduler.submit(task.id());
    return &task;
  }

  sim::Simulation simulation;
  cluster::Platform platform;
  TaskTable tasks;
  AgentScheduler scheduler;
  std::vector<TaskId> placed;
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

  scheduler.task_completed(big->id());
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
  const auto ok_a = a->event_time(Event::kScheduleOk);
  const auto ok_b = b->event_time(Event::kScheduleOk);
  ASSERT_TRUE(ok_a && ok_b);
  EXPECT_GT(*ok_b, *ok_a);
}

TEST_F(SchedulerTest, SlowdownInflatesDecisionTime) {
  sim::Simulation sim2;
  cluster::Platform platform2(sim2, cluster::summit(4));
  TaskTable tasks2;
  AgentScheduler slow(sim2, platform2, tasks2, {0, 1, 2, 3}, Rng{5});
  std::vector<TaskId> placed2;
  slow.set_on_placed([&](TaskId id) { placed2.push_back(id); });
  slow.set_decision_slowdown([] { return 5.0; });

  auto fast_task = submit(TaskDescription{.uid = "f", .ranks = 1});
  auto slow_task =
      &tasks2.emplace_back(TaskDescription{.uid = "s", .ranks = 1});
  slow_task->advance(TaskState::kTmgrScheduling, sim2.now());
  slow_task->advance(TaskState::kAgentScheduling, sim2.now());
  slow.submit(slow_task->id());

  simulation.run();
  sim2.run();
  const Duration fast_decision =
      *fast_task->event_time(Event::kScheduleOk) -
      *fast_task->event_time(Event::kSlotsClaimed);
  const Duration slow_decision =
      *slow_task->event_time(Event::kScheduleOk) -
      *slow_task->event_time(Event::kSlotsClaimed);
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
    TaskTable tasks;
    AgentScheduler scheduler(simulation, platform, tasks, nodes, Rng{5},
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
      Task& task = tasks.emplace_back(shape, static_cast<TaskId>(tasks.size()));
      task.advance(TaskState::kTmgrScheduling, simulation.now());
      task.advance(TaskState::kAgentScheduling, simulation.now());
      scheduler.submit(task.id());  // places synchronously when it fits
      EXPECT_EQ(placed_plan(task), expected);
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
  scheduler.task_completed(task->id());
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
  EXPECT_EQ(session.platform().node(0).busy_cores(), kAgentCores);
}

TEST(SessionTest, TaskLifecycleEventsInListingOrder) {
  Session session(small_session_config());
  Task* task = nullptr;
  session.start([&] {
    task = &session.submit(TaskDescription{
        .uid = "t", .ranks = 4, .fixed_duration = Duration::seconds(15.0)});
  });
  session.run();

  ASSERT_EQ(task->state(), TaskState::kDone);
  // Listing 1 order within EXECUTING.
  const Event expected[] = {Event::kLaunchStart, Event::kExecStart,
                            Event::kRankStart,   Event::kRankStop,
                            Event::kExecStop,    Event::kLaunchStop};
  SimTime previous = SimTime::zero();
  for (const Event name : expected) {
    const auto at = task->event_time(name);
    ASSERT_TRUE(at.has_value()) << to_string(name);
    EXPECT_GE(*at, previous) << to_string(name);
    previous = *at;
  }
  EXPECT_NEAR(task->rank_duration()->to_seconds(), 15.0, 0.1);
}

TEST(SessionTest, StateMachineProgression) {
  Session session(small_session_config());
  Task* task = nullptr;
  session.start([&] {
    task = &session.submit(TaskDescription{.uid = "t", .ranks = 1});
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
  Task* service = nullptr;
  session.start([&] {
    service = &session.submit(TaskDescription{
        .uid = "svc", .kind = TaskKind::kService, .ranks = 2});
    // Stop it after 100 s.
    session.simulation().schedule(Duration::seconds(100.0), [&] {
      session.stop_task(service->id());
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
      [&](const Task&) { ++calls; });
  session.add_task_completion_listener([&](const Task&) { ++calls; });
  session.start([&] {
    session.submit(TaskDescription{.uid = "t", .ranks = 1});
  });
  session.run();
  EXPECT_EQ(calls, 2);
}

TEST(SessionTest, StartListenerFiresAtRankStart) {
  Session session(small_session_config());
  SimTime started;
  Task* task = nullptr;
  session.add_task_start_listener([&](const Task& t) {
    started = session.simulation().now();
    (void)t;
  });
  session.start([&] {
    task = &session.submit(TaskDescription{.uid = "t", .ranks = 1});
  });
  session.run();
  EXPECT_EQ(started, *task->event_time(Event::kRankStart));
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
      [late = &late](const Task& task) {
        if (!late->registered_by.empty()) return;
        late->registered_by = task.uid();
        for (int i = 0; i < 64; ++i) {
          late->session->add_task_start_listener(
              [late](const Task& t) { late->calls.push_back(t.uid()); });
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
      [late = &late](const Task& task) {
        if (!late->registered_by.empty()) return;
        late->registered_by = task.uid();
        for (int i = 0; i < 64; ++i) {
          late->session->add_task_completion_listener(
              [late](const Task& t) { late->calls.push_back(t.uid()); });
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
    const auto a = &session.submit(TaskDescription{.uid = "a", .ranks = 1});
    const auto b = &session.submit(TaskDescription{.ranks = 1});
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
  Task* task = nullptr;
  session.start([&] { task = &session.submit(TaskDescription{.ranks = 1}); });
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
  Task* fast_task = nullptr;
  Task* slow_task = nullptr;
  fast_session.start([&] {
    fast_task = &fast_session.submit(TaskDescription{
        .uid = "t", .ranks = 1, .fixed_duration = Duration::seconds(100.0)});
  });
  slow_session.start([&] {
    for (NodeId node : slow_session.worker_node_ids()) {
      slow_session.executor().set_node_noise(node, 0.10);
    }
    slow_task = &slow_session.submit(TaskDescription{
        .uid = "t", .ranks = 1, .fixed_duration = Duration::seconds(100.0)});
  });
  fast_session.run();
  slow_session.run();
  EXPECT_NEAR(slow_task->rank_duration()->to_seconds(),
              fast_task->rank_duration()->to_seconds() * 1.10, 1e-6);
}

TEST(SessionTest, DataStagingPhases) {
  Session session(small_session_config());
  Task* task = nullptr;
  session.start([&] {
    TaskDescription d;
    d.uid = "staged";
    d.ranks = 2;
    d.fixed_duration = Duration::seconds(10.0);
    d.input_staging_mib = 1000.0;   // 2 s at 500 MiB/s + latency
    d.output_staging_mib = 250.0;   // 0.5 s
    task = &session.submit(d);
  });
  session.run();

  ASSERT_EQ(task->state(), TaskState::kDone);
  const auto in_start = task->event_time(Event::kStageInStart);
  const auto in_stop = task->event_time(Event::kStageInStop);
  const auto out_start = task->event_time(Event::kStageOutStart);
  const auto out_stop = task->event_time(Event::kStageOutStop);
  ASSERT_TRUE(in_start && in_stop && out_start && out_stop);
  EXPECT_NEAR((*in_stop - *in_start).to_seconds(), 2.05, 1e-6);
  EXPECT_NEAR((*out_stop - *out_start).to_seconds(), 0.55, 1e-6);
  // Ordering: stage-in fully precedes the launch; stage-out follows
  // launch_stop; DONE only after stage-out.
  EXPECT_LE(*in_stop, *task->event_time(Event::kLaunchStart));
  EXPECT_GE(*out_start, *task->event_time(Event::kLaunchStop));
  EXPECT_EQ(*task->state_entered(TaskState::kDone), *out_stop);
}

TEST(SessionTest, NoStagingSkipsPhases) {
  Session session(small_session_config());
  Task* task = nullptr;
  session.start([&] {
    task = &session.submit(TaskDescription{.uid = "t", .ranks = 1});
  });
  session.run();
  EXPECT_FALSE(task->event_time(Event::kStageInStart).has_value());
  EXPECT_FALSE(task->event_time(Event::kStageOutStart).has_value());
}

TEST(SessionTest, StagingHoldsResources) {
  // The slots are claimed during stage-in (the node is reserved while data
  // moves), so a second task must wait for staging + execution.
  Session session(small_session_config());
  Task* staged = nullptr;
  Task* second = nullptr;
  session.start([&] {
    TaskDescription d;
    d.uid = "staged";
    d.ranks = 84;  // whole machine
    d.fixed_duration = Duration::seconds(10.0);
    d.input_staging_mib = 5000.0;  // 10 s
    staged = &session.submit(d);
    second = &session.submit(TaskDescription{.uid = "second", .ranks = 84});
  });
  session.run();
  EXPECT_GE(*second->event_time(Event::kLaunchStart),
            *staged->event_time(Event::kLaunchStop));
}

TEST(SessionTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Session session(small_session_config());
    session.start([&] {
      for (int i = 0; i < 5; ++i) {
        session.submit(TaskDescription{
            .ranks = 8, .fixed_duration = Duration::seconds(20.0)});
      }
    });
    session.run();
    std::vector<std::int64_t> stamps;
    for (const Task& task : session.tasks()) {
      stamps.push_back(task.event_time(Event::kRankStop)->nanos());
    }
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------- the pilot grant, pinned ----------

/// Time of the pilot's `event` record in `session`'s profile log.
std::optional<SimTime> pilot_event_time(Session& session, Event event) {
  const ProfileStore& log = session.profiles();
  for (std::size_t i = 0; i < log.size(); ++i) {
    const ProfileRecord& record = log.at(i);
    if (record.subject == kPilotSubject && record.event == event) {
      return record.time;
    }
  }
  return std::nullopt;
}

// The pilot is granted after a seeded queue wait, on nodes 0..n-1; the
// walltime cancels what still runs exactly `pilot.runtime` after the grant,
// and releasing the pilot first cancels the walltime.
TEST(SessionTest, PilotGrantAndWalltimeArePinned) {
  const std::pair<std::uint64_t, std::int64_t> grants[] = {
      {1, 4935738075}, {2, 5511775200}};
  for (const auto& [seed, granted_ns] : grants) {
    rp::SessionConfig config = small_session_config();
    config.seed = seed;
    Session session(config);
    session.start([] {});
    session.run();
    EXPECT_EQ(session.pilot_granted_at().nanos(), granted_ns) << seed;
    EXPECT_EQ(session.pilot_nodes(), (std::vector<NodeId>{0, 1, 2})) << seed;
  }

  rp::SessionConfig short_walltime = small_session_config();
  short_walltime.pilot.runtime = Duration::seconds(90.0);
  Session killed(short_walltime);
  const Task* running = nullptr;
  killed.start([&] {
    running = &killed.submit(TaskDescription{
        .uid = "long", .ranks = 1, .fixed_duration = Duration::seconds(1e4)});
  });
  testing::internal::CaptureStderr();
  killed.run();
  (void)testing::internal::GetCapturedStderr();
  ASSERT_EQ(running->state(), TaskState::kCanceled);
  EXPECT_EQ(running->state_entered(TaskState::kCanceled),
            killed.pilot_granted_at() + short_walltime.pilot.runtime);

  Session finished(small_session_config());
  finished.start([&] {
    finished.submit(TaskDescription{
        .uid = "short", .ranks = 1, .fixed_duration = Duration::seconds(10.0)});
  });
  finished.add_task_completion_listener(
      [&](const Task&) { finished.finalize(); });
  testing::internal::CaptureStderr();
  const SimTime end = finished.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(std::optional<SimTime>(end),
            pilot_event_time(finished, Event::kPilotDone));
}

TEST(SessionTest, FinalizeBeforeGrantCancelsTheGrant) {
  // A session finalized while its pilot still waits in the queue ends at
  // DONE: the pilot is never granted, never becomes ACTIVE and never hits
  // its walltime.
  rp::SessionConfig config = small_session_config();
  config.pilot.runtime = Duration::seconds(100.0);
  Session session(config);
  bool ready = false;
  session.start([&] { ready = true; });
  session.finalize();
  testing::internal::CaptureStderr();
  const SimTime end = session.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_FALSE(ready);
  EXPECT_EQ(pilot_event_time(session, Event::kPilotActive), std::nullopt);
  EXPECT_EQ(end, SimTime::from_seconds(1.0));
  EXPECT_EQ(std::optional<SimTime>(end),
            pilot_event_time(session, Event::kPilotDone));
}

// ---------- the profile log, pinned ----------

/// FNV-1a over the bytes fed to it.
struct LogDigest {
  std::uint64_t hash = 14695981039346656037ULL;

  void mix(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  }
  void mix(std::int64_t value) { mix(&value, sizeof(value)); }
  void mix(std::string_view text) {
    mix(text.data(), text.size());
    mix(std::int64_t{-1});  // separator: "ab","c" differs from "a","bc"
  }
  void mix(const std::optional<SimTime>& time) {
    mix(time ? time->nanos() : std::int64_t{-2});
  }
};

// One session reaches every path that writes the profile log: staging in
// and out, a crash (failure_probability 1, rank_stop and exec_stop in one
// nanosecond), a running task canceled by abort_running_tasks, a service
// stopped by finalize, and the pilot's own records. The digest covers every
// (time, uid, name) record in order plus each task's first-entry time of
// every event and state.
TEST(ProfileLogPinTest, LogAndFirstEntryTimesArePinned) {
  Session session(small_session_config());
  session.start([&] {
    session.submit(TaskDescription{.uid = "staged.with.a.long.uid",
                                   .ranks = 2,
                                   .fixed_duration = Duration::seconds(10.0),
                                   .input_staging_mib = 1000.0,
                                   .output_staging_mib = 250.0});
    session.submit(TaskDescription{.uid = "doomed",
                                   .ranks = 1,
                                   .fixed_duration = Duration::seconds(20.0),
                                   .failure_probability = 1.0});
    session.submit(TaskDescription{
        .uid = "long", .ranks = 4, .fixed_duration = Duration::seconds(1e4)});
    session.submit(
        TaskDescription{.uid = "svc", .kind = TaskKind::kService, .ranks = 2});
    session.simulation().schedule(Duration::seconds(100.0), [&] {
      session.finalize();             // stops "svc"
      session.abort_running_tasks();  // cancels "long"
    });
  });
  session.run();

  const ProfileStore& log = session.profiles();
  LogDigest digest;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const ProfileRecord& record = log.at(i);
    digest.mix(record.time.nanos());
    digest.mix(record.subject == kPilotSubject
                   ? kPilotUid
                   : std::string_view(session.tasks()[record.subject].uid()));
    digest.mix(to_string(record.event));
  }
  const Event event_names[] = {
      Event::kLaunchStart,   Event::kExecStart,    Event::kRankStart,
      Event::kRankStop,      Event::kExecStop,     Event::kLaunchStop,
      Event::kScheduleStart, Event::kSlotsClaimed, Event::kScheduleOk,
      Event::kStageInStart,  Event::kStageInStop,  Event::kStageOutStart,
      Event::kStageOutStop};
  const TaskState states[] = {
      TaskState::kNew,  TaskState::kTmgrScheduling, TaskState::kAgentScheduling,
      TaskState::kExecuting, TaskState::kDone,      TaskState::kFailed,
      TaskState::kCanceled};
  for (const Task& task : session.tasks()) {
    for (const Event name : event_names) {
      digest.mix(task.event_time(name));
    }
    for (const TaskState state : states) {
      digest.mix(task.state_entered(state));
    }
  }

  EXPECT_EQ(session.find_task("staged.with.a.long.uid")->state(),
            TaskState::kDone);
  EXPECT_EQ(session.find_task("doomed")->state(), TaskState::kFailed);
  EXPECT_EQ(session.find_task("long")->state(), TaskState::kCanceled);
  EXPECT_EQ(session.find_task("svc")->state(), TaskState::kDone);
  EXPECT_EQ(log.size(), 59u);
  EXPECT_EQ(digest.hash, 14278847767186172439ULL);
}

}  // namespace
}  // namespace soma::rp
