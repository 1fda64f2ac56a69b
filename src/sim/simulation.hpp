// Discrete-event simulation engine.
//
// Every subsystem in this repository (network, batch system, RP components,
// SOMA service, monitoring clients) is driven by one `Simulation` event
// queue. Events scheduled for the same instant are dispatched in scheduling
// order (a monotonically increasing sequence number breaks ties), which makes
// whole-workflow runs bit-for-bit reproducible for a given seed.
//
// Hot-loop design: the heap holds only {when, seq, slot} (24 B), so a sift
// moves three integers. Everything else about an event lives in its slot of
// a free-listed table: the callback, a move-only small-buffer function
// (common::UniqueFunction) whose typical capture is stored inline, and the
// cancellation state. Cancellation is generation-counted: an EventHandle is
// just {slot, generation}, and a cancelled or fired event bumps nothing but
// a couple of integers — no shared_ptr<bool> control block per event.
//
// Callback lifetime: a fired event's callback is moved out of its slot
// before it runs (it may schedule events and grow the table under it) and
// destroyed when it returns. A cancelled event keeps its callback until the
// event reaches the front of the heap and is discarded, so captures die at
// pop, never inside cancel().
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"

namespace soma::sim {

class Simulation;

/// Handle to a scheduled event; allows cancellation (e.g. a periodic monitor
/// being shut down at workflow completion) and pending-state queries.
///
/// A handle is a weak reference: it never keeps the event alive and it must
/// not outlive the Simulation that issued it.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Safe to call repeatedly and
  /// after the event has fired (no-op).
  void cancel();

  /// True while the referenced event is still pending (scheduled, not yet
  /// fired and not cancelled). A default-constructed handle, a fired event,
  /// and a cancelled event all report false.
  [[nodiscard]] bool valid() const;

 private:
  friend class Simulation;
  EventHandle(Simulation* simulation, std::uint32_t slot,
              std::uint64_t generation)
      : simulation_(simulation), slot_(slot), generation_(generation) {}

  Simulation* simulation_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// The event loop and simulated clock.
class Simulation {
 public:
  using Callback = common::UniqueFunction<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time. Only advances inside run()/run_until().
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time.
  EventHandle schedule(Duration delay, Callback fn);

  /// Schedule `fn` at an absolute time (must not be in the past).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Run until the queue drains. Returns the time of the last event.
  SimTime run();

  /// Run until the queue drains or the clock passes `until`, whichever comes
  /// first. Events scheduled exactly at `until` are executed.
  SimTime run_until(SimTime until);

  /// Execute at most one pending event. Returns false if the queue is empty.
  bool step();

  /// Number of events dispatched so far (diagnostics/tests).
  [[nodiscard]] std::uint64_t events_dispatched() const {
    return dispatched_;
  }

  /// Number of live events currently pending. Cancelled events still sit in
  /// the queue until lazily discarded, but are not counted here.
  [[nodiscard]] std::size_t pending() const { return live_events_; }

  /// Pre-size the event queue and slot table for `n` concurrent events (the
  /// big scaling benches schedule tens of thousands up front).
  void reserve(std::size_t n);

 private:
  friend class EventHandle;

  /// A heap entry. The callback stays in the slot, so sifts move 24 B.
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// One event's callback and cancellation state. `generation` increments
  /// every time the slot is recycled, so handles from a previous occupancy
  /// go stale automatically; `pending` flips false on cancel and on
  /// dispatch. `fn` is empty once the event is popped.
  struct Slot {
    Callback fn;
    std::uint64_t generation = 0;
    bool pending = false;
  };

  [[nodiscard]] bool event_pending(std::uint32_t slot,
                                   std::uint64_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation &&
           slots_[slot].pending;
  }
  void cancel_event(std::uint32_t slot, std::uint64_t generation) {
    if (event_pending(slot, generation)) {
      slots_[slot].pending = false;
      --live_events_;
    }
  }

  std::uint32_t acquire_slot();
  /// Retire the slot of a popped event (fired or discarded-as-cancelled).
  /// The 1:1 event-to-slot mapping guarantees no queue entry references the
  /// slot after its event is popped.
  void release_slot(std::uint32_t slot);

  /// Pop and execute the front event. Precondition: queue not empty and the
  /// front event is live (not cancelled).
  void dispatch_front();
  /// Pop cancelled events off the front, destroying their callbacks and
  /// retiring their slots.
  void discard_cancelled_front();

  /// priority_queue with access to the underlying vector's capacity.
  struct EventQueue : std::priority_queue<Event, std::vector<Event>, Later> {
    void reserve(std::size_t n) { c.reserve(n); }
  };

  SimTime now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t live_events_ = 0;
  EventQueue queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// Convenience owner for repeating activities: reschedules itself every
/// `period` until stop() is called. Used by the monitoring clients.
///
/// Liveness follows the engine's generation-counted cancellation: the task
/// owns at most one pending event, stop()/destruction cancel it through its
/// EventHandle, and a cancelled event is discarded without ever invoking the
/// callback — so the `this` capture can never be touched after destruction.
class PeriodicTask {
 public:
  using Tick = common::UniqueFunction<void()>;

  PeriodicTask(Simulation& simulation, Duration period, Tick tick);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Begin ticking; the first tick fires after `initial_delay`.
  void start(Duration initial_delay = Duration::zero());

  /// Stop ticking. Safe to call repeatedly.
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] Duration period() const { return period_; }

 private:
  void arm(Duration delay);

  Simulation& simulation_;
  Duration period_;
  Tick tick_;
  bool running_ = false;
  EventHandle pending_;
};

}  // namespace soma::sim
