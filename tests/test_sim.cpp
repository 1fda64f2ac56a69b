// Unit tests for the discrete-event simulation engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/simulation.hpp"

namespace soma::sim {
namespace {

TEST(SimulationTest, StartsAtZero) {
  Simulation simulation;
  EXPECT_EQ(simulation.now(), SimTime::zero());
  EXPECT_EQ(simulation.pending(), 0u);
}

TEST(SimulationTest, RunsEventsInTimeOrder) {
  Simulation simulation;
  std::vector<int> order;
  simulation.schedule(Duration::seconds(3.0), [&] { order.push_back(3); });
  simulation.schedule(Duration::seconds(1.0), [&] { order.push_back(1); });
  simulation.schedule(Duration::seconds(2.0), [&] { order.push_back(2); });
  simulation.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulation.now().to_seconds(), 3.0);
}

TEST(SimulationTest, TieBrokenByScheduleOrder) {
  Simulation simulation;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulation.schedule(Duration::seconds(1.0), [&, i] { order.push_back(i); });
  }
  simulation.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulationTest, ClockAdvancesOnlyAtDispatch) {
  Simulation simulation;
  SimTime seen;
  simulation.schedule(Duration::seconds(5.0),
                      [&] { seen = simulation.now(); });
  EXPECT_EQ(simulation.now(), SimTime::zero());
  simulation.run();
  EXPECT_DOUBLE_EQ(seen.to_seconds(), 5.0);
}

TEST(SimulationTest, NestedScheduling) {
  Simulation simulation;
  std::vector<double> times;
  simulation.schedule(Duration::seconds(1.0), [&] {
    times.push_back(simulation.now().to_seconds());
    simulation.schedule(Duration::seconds(1.0), [&] {
      times.push_back(simulation.now().to_seconds());
    });
  });
  simulation.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(SimulationTest, ScheduleAtAbsoluteTime) {
  Simulation simulation;
  double fired = -1.0;
  simulation.schedule_at(SimTime::from_seconds(7.0),
                         [&] { fired = simulation.now().to_seconds(); });
  simulation.run();
  EXPECT_DOUBLE_EQ(fired, 7.0);
}

TEST(SimulationTest, SchedulingIntoThePastThrows) {
  Simulation simulation;
  simulation.schedule(Duration::seconds(5.0), [] {});
  simulation.run();
  EXPECT_THROW(simulation.schedule_at(SimTime::from_seconds(1.0), [] {}),
               InternalError);
  EXPECT_THROW(simulation.schedule(Duration::seconds(-1.0), [] {}),
               InternalError);
}

TEST(SimulationTest, CancelPreventsDispatch) {
  Simulation simulation;
  bool fired = false;
  EventHandle handle =
      simulation.schedule(Duration::seconds(1.0), [&] { fired = true; });
  handle.cancel();
  simulation.run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelAfterFireIsNoop) {
  Simulation simulation;
  int count = 0;
  EventHandle handle =
      simulation.schedule(Duration::seconds(1.0), [&] { ++count; });
  simulation.run();
  handle.cancel();  // must not crash or re-fire
  simulation.run();
  EXPECT_EQ(count, 1);
}

TEST(SimulationTest, CancelledEventDoesNotAdvanceClock) {
  Simulation simulation;
  EventHandle handle = simulation.schedule(Duration::seconds(100.0), [] {});
  simulation.schedule(Duration::seconds(1.0), [] {});
  handle.cancel();
  simulation.run();
  EXPECT_DOUBLE_EQ(simulation.now().to_seconds(), 1.0);
}

TEST(SimulationTest, RunUntilStopsAtBoundary) {
  Simulation simulation;
  std::vector<double> fired;
  for (int i = 1; i <= 5; ++i) {
    simulation.schedule(Duration::seconds(i), [&, i] {
      fired.push_back(static_cast<double>(i));
    });
  }
  simulation.run_until(SimTime::from_seconds(3.0));
  EXPECT_EQ(fired.size(), 3u);  // events at 1, 2, 3 (inclusive)
  EXPECT_DOUBLE_EQ(simulation.now().to_seconds(), 3.0);
  simulation.run();
  EXPECT_EQ(fired.size(), 5u);
}

TEST(SimulationTest, StepReturnsFalseWhenEmpty) {
  Simulation simulation;
  EXPECT_FALSE(simulation.step());
  simulation.schedule(Duration::seconds(1.0), [] {});
  EXPECT_TRUE(simulation.step());
  EXPECT_FALSE(simulation.step());
}

TEST(SimulationTest, DispatchCounter) {
  Simulation simulation;
  for (int i = 0; i < 5; ++i) simulation.schedule(Duration::seconds(i + 1), [] {});
  simulation.run();
  EXPECT_EQ(simulation.events_dispatched(), 5u);
}

// ---------- EventHandle validity (generation-slot semantics) ----------

TEST(EventHandleTest, DefaultHandleIsInvalid) {
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  handle.cancel();  // must be a safe no-op
}

TEST(EventHandleTest, ValidWhilePendingInvalidAfterFire) {
  Simulation simulation;
  EventHandle handle = simulation.schedule(Duration::seconds(1.0), [] {});
  EXPECT_TRUE(handle.valid());
  simulation.run();
  EXPECT_FALSE(handle.valid());
}

TEST(EventHandleTest, InvalidAfterCancel) {
  Simulation simulation;
  EventHandle handle = simulation.schedule(Duration::seconds(1.0), [] {});
  handle.cancel();
  EXPECT_FALSE(handle.valid());
  simulation.run();
  EXPECT_FALSE(handle.valid());
}

TEST(EventHandleTest, InvalidInsideOwnCallback) {
  Simulation simulation;
  EventHandle handle;
  bool seen_valid = true;
  handle = simulation.schedule(Duration::seconds(1.0),
                               [&] { seen_valid = handle.valid(); });
  simulation.run();
  EXPECT_FALSE(seen_valid);
}

TEST(EventHandleTest, StaleHandleDoesNotTouchRecycledSlot) {
  Simulation simulation;
  EventHandle old_handle = simulation.schedule(Duration::seconds(1.0), [] {});
  simulation.run();  // old event fires; its slot is recycled below
  bool fired = false;
  EventHandle new_handle =
      simulation.schedule(Duration::seconds(1.0), [&] { fired = true; });
  EXPECT_FALSE(old_handle.valid());
  old_handle.cancel();  // stale generation: must not cancel the new event
  EXPECT_TRUE(new_handle.valid());
  simulation.run();
  EXPECT_TRUE(fired);
}

TEST(EventHandleTest, CancelledEventSlotIsRecycledLazily) {
  Simulation simulation;
  // Cancel ahead of a live event; the cancelled entry stays queued (lazy
  // discard) but no longer counts as pending work.
  EventHandle cancelled = simulation.schedule(Duration::seconds(1.0), [] {});
  int fired = 0;
  simulation.schedule(Duration::seconds(2.0), [&] { ++fired; });
  cancelled.cancel();
  EXPECT_EQ(simulation.pending(), 1u);  // only the live event
  simulation.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulation.events_dispatched(), 1u);
}

TEST(SimulationTest, PendingTracksLiveEventsOnly) {
  Simulation simulation;
  EventHandle a = simulation.schedule(Duration::seconds(1.0), [] {});
  EventHandle b = simulation.schedule(Duration::seconds(2.0), [] {});
  simulation.schedule(Duration::seconds(3.0), [] {});
  EXPECT_EQ(simulation.pending(), 3u);
  a.cancel();
  EXPECT_EQ(simulation.pending(), 2u);
  b.cancel();
  b.cancel();  // double-cancel must not decrement twice
  EXPECT_EQ(simulation.pending(), 1u);
  EXPECT_TRUE(simulation.step());
  EXPECT_EQ(simulation.pending(), 0u);
  EXPECT_FALSE(simulation.step());
}

TEST(SimulationTest, ReserveDoesNotDisturbScheduledEvents) {
  Simulation simulation;
  std::vector<int> order;
  simulation.schedule(Duration::seconds(2.0), [&] { order.push_back(2); });
  simulation.reserve(1024);
  simulation.schedule(Duration::seconds(1.0), [&] { order.push_back(1); });
  EXPECT_EQ(simulation.pending(), 2u);
  simulation.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/// Counts the destruction of the one live copy of a capture: a moved-from
/// probe counts nothing, so relocations inside the engine are invisible.
class DestructionProbe {
 public:
  explicit DestructionProbe(int* destroyed) : destroyed_(destroyed) {}
  DestructionProbe(DestructionProbe&& other) noexcept
      : destroyed_(std::exchange(other.destroyed_, nullptr)) {}
  DestructionProbe& operator=(DestructionProbe&&) = delete;
  ~DestructionProbe() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }

 private:
  int* destroyed_;
};

TEST(SimulationTest, FiredCaptureIsDestroyedOnceAfterItsCallbackReturns) {
  Simulation simulation;
  int destroyed = 0;
  int destroyed_while_running = -1;
  simulation.schedule(
      Duration::seconds(1.0),
      [probe = DestructionProbe(&destroyed), &destroyed,
       &destroyed_while_running] { destroyed_while_running = destroyed; });
  EXPECT_EQ(destroyed, 0);
  simulation.run();
  EXPECT_EQ(destroyed_while_running, 0);
  EXPECT_EQ(destroyed, 1);
}

TEST(SimulationTest, CancelledCaptureIsDestroyedWhenDiscardedNotAtCancel) {
  Simulation simulation;
  int destroyed = 0;
  int seen_before = -1;
  int seen_after = -1;
  simulation.schedule(Duration::seconds(0.5),
                      [&] { seen_before = destroyed; });
  EventHandle cancelled = simulation.schedule(
      Duration::seconds(1.0), [probe = DestructionProbe(&destroyed)] {});
  simulation.schedule(Duration::seconds(2.0), [&] { seen_after = destroyed; });
  cancelled.cancel();
  EXPECT_EQ(destroyed, 0);  // cancel() only marks the event
  simulation.run();
  // Still queued (not at the front) when the 0.5 s event ran; discarded
  // before the 2 s event.
  EXPECT_EQ(seen_before, 0);
  EXPECT_EQ(seen_after, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(SimulationTest, CallbackKeepsItsCapturesWhileSchedulingManyEvents) {
  // The callback schedules enough events to grow every engine table under
  // it; it must still read its own captures afterwards.
  Simulation simulation;
  constexpr int kEvents = 10000;
  std::vector<std::pair<SimTime, int>> fired;
  fired.reserve(kEvents);
  bool captures_intact = false;
  const std::array<std::uint64_t, 3> words{0x0123456789abcdefULL,
                                           0xfedcba9876543210ULL, 42};
  simulation.schedule(Duration::seconds(1.0), [&simulation, &fired,
                                               &captures_intact, words] {
    for (int i = 0; i < kEvents; ++i) {
      const SimTime when =
          simulation.now() + Duration::milliseconds((i * 7919) % 1000);
      simulation.schedule_at(
          when, [&fired, &simulation, i] {
            fired.emplace_back(simulation.now(), i);
          });
    }
    captures_intact = words[0] == 0x0123456789abcdefULL &&
                      words[1] == 0xfedcba9876543210ULL && words[2] == 42;
  });
  simulation.run();
  EXPECT_TRUE(captures_intact);
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
  // (when, seq) order: by time, ties in scheduling order.
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  for (const auto& [when, i] : fired) {
    EXPECT_EQ(when, SimTime::from_seconds(1.0) +
                        Duration::milliseconds((i * 7919) % 1000));
  }
}

// ---------- PeriodicTask ----------

TEST(PeriodicTaskTest, TicksAtPeriod) {
  Simulation simulation;
  std::vector<double> ticks;
  PeriodicTask task(simulation, Duration::seconds(10.0), [&] {
    ticks.push_back(simulation.now().to_seconds());
  });
  task.start();
  simulation.run_until(SimTime::from_seconds(35.0));
  // First tick at 0 (no initial delay), then 10, 20, 30.
  ASSERT_EQ(ticks.size(), 4u);
  EXPECT_DOUBLE_EQ(ticks[0], 0.0);
  EXPECT_DOUBLE_EQ(ticks[3], 30.0);
}

TEST(PeriodicTaskTest, InitialDelay) {
  Simulation simulation;
  std::vector<double> ticks;
  PeriodicTask task(simulation, Duration::seconds(10.0), [&] {
    ticks.push_back(simulation.now().to_seconds());
  });
  task.start(Duration::seconds(5.0));
  simulation.run_until(SimTime::from_seconds(26.0));
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks[0], 5.0);
  EXPECT_DOUBLE_EQ(ticks[1], 15.0);
}

TEST(PeriodicTaskTest, StopHaltsTicks) {
  Simulation simulation;
  int count = 0;
  PeriodicTask task(simulation, Duration::seconds(1.0), [&] { ++count; });
  task.start();
  simulation.schedule(Duration::seconds(4.5), [&] { task.stop(); });
  simulation.run_until(SimTime::from_seconds(100.0));
  EXPECT_EQ(count, 5);  // ticks at 0,1,2,3,4
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, StopFromInsideTick) {
  Simulation simulation;
  int count = 0;
  PeriodicTask task(simulation, Duration::seconds(1.0), [&] {
    if (++count == 3) task.stop();
  });
  task.start();
  simulation.run_until(SimTime::from_seconds(100.0));
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTaskTest, DestructionCancelsPendingTick) {
  Simulation simulation;
  int count = 0;
  {
    PeriodicTask task(simulation, Duration::seconds(1.0), [&] { ++count; });
    task.start(Duration::seconds(1.0));
  }  // destroyed with a tick still queued
  simulation.run();
  EXPECT_EQ(count, 0);
}

TEST(PeriodicTaskTest, RestartAfterStop) {
  Simulation simulation;
  int count = 0;
  PeriodicTask task(simulation, Duration::seconds(1.0), [&] { ++count; });
  task.start();
  simulation.run_until(SimTime::from_seconds(2.5));
  task.stop();
  task.start(Duration::seconds(1.0));
  simulation.run_until(SimTime::from_seconds(4.6));
  EXPECT_EQ(count, 5);  // 0,1,2 then 3.5,4.5
}

TEST(PeriodicTaskTest, ZeroPeriodRejected) {
  Simulation simulation;
  EXPECT_THROW(PeriodicTask(simulation, Duration::zero(), [] {}),
               InternalError);
}

TEST(PeriodicTaskTest, MoveOnlyTickCallable) {
  // The tick is a common::UniqueFunction, so move-only state (here a
  // unique_ptr counter) can live inside the callable.
  Simulation simulation;
  auto count = std::make_unique<int>(0);
  int* raw = count.get();
  PeriodicTask task(simulation, Duration::seconds(1.0),
                    [owned = std::move(count)] { ++*owned; });
  task.start();
  simulation.run_until(SimTime::from_seconds(2.5));
  task.stop();
  EXPECT_EQ(*raw, 3);  // ticks at 0, 1, 2
}

TEST(PeriodicTaskTest, RestartInsideTickKeepsSingleCadence) {
  // stop() + start() from within a tick must leave exactly one pending
  // event — the restarted cadence — not the restart plus the old rearm.
  Simulation simulation;
  std::vector<double> ticks;
  PeriodicTask task(simulation, Duration::seconds(10.0), [&] {
    ticks.push_back(simulation.now().to_seconds());
    if (ticks.size() == 1) {
      task.stop();
      task.start(Duration::seconds(3.0));
    }
  });
  task.start();
  simulation.run_until(SimTime::from_seconds(25.0));
  // Tick at 0 restarts with a 3 s delay: 3, then every 10 s: 13, 23.
  ASSERT_EQ(ticks.size(), 4u);
  EXPECT_DOUBLE_EQ(ticks[1], 3.0);
  EXPECT_DOUBLE_EQ(ticks[2], 13.0);
  EXPECT_DOUBLE_EQ(ticks[3], 23.0);
}

}  // namespace
}  // namespace soma::sim
