#include "sim/simulation.hpp"

namespace soma::sim {

void EventHandle::cancel() {
  if (simulation_ != nullptr) simulation_->cancel_event(slot_, generation_);
}

bool EventHandle::valid() const {
  return simulation_ != nullptr && simulation_->event_pending(slot_,
                                                              generation_);
}

std::uint32_t Simulation::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].pending = true;
    return slot;
  }
  slots_.emplace_back().pending = true;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulation::release_slot(std::uint32_t slot) {
  // Bumping the generation here invalidates every outstanding handle to the
  // finished occupancy before the slot is handed out again.
  ++slots_[slot].generation;
  slots_[slot].pending = false;
  free_slots_.push_back(slot);
}

EventHandle Simulation::schedule(Duration delay, Callback fn) {
  check(delay >= Duration::zero(), "cannot schedule into the past");
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulation::schedule_at(SimTime when, Callback fn) {
  check(when >= now_, "cannot schedule into the past");
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  queue_.push(Event{when, next_seq_++, slot});
  ++live_events_;
  return EventHandle{this, slot, slots_[slot].generation};
}

void Simulation::reserve(std::size_t n) {
  queue_.reserve(n);
  slots_.reserve(n);
  free_slots_.reserve(n);
}

void Simulation::dispatch_front() {
  const Event event = queue_.top();
  queue_.pop();
  // The callback leaves the table before it runs: it may schedule events,
  // and a table that grows under a callback invoked in place would move it
  // mid-call. Its captures are destroyed when it returns.
  Callback fn = std::move(slots_[event.slot].fn);
  // The event is no longer pending the moment it fires; its handle goes
  // stale before the callback runs so valid() is false inside the callback.
  release_slot(event.slot);
  --live_events_;
  now_ = event.when;
  ++dispatched_;
  fn();
}

void Simulation::discard_cancelled_front() {
  while (!queue_.empty()) {
    const std::uint32_t slot = queue_.top().slot;
    if (slots_[slot].pending) return;
    queue_.pop();
    // Captures are destroyed here, at pop, as they always were. They die on
    // a local, so a destructor that schedules events cannot grow the table
    // under the callback being destroyed.
    const Callback discarded = std::move(slots_[slot].fn);
    release_slot(slot);
  }
}

bool Simulation::step() {
  discard_cancelled_front();
  if (queue_.empty()) return false;
  dispatch_front();
  return true;
}

SimTime Simulation::run() {
  while (step()) {
  }
  return now_;
}

SimTime Simulation::run_until(SimTime until) {
  while (true) {
    discard_cancelled_front();
    if (queue_.empty()) return now_;
    if (queue_.top().when > until) {
      now_ = until;
      return now_;
    }
    dispatch_front();
  }
}

PeriodicTask::PeriodicTask(Simulation& simulation, Duration period, Tick tick)
    : simulation_(simulation), period_(period), tick_(std::move(tick)) {
  check(period_ > Duration::zero(), "periodic task period must be positive");
}

void PeriodicTask::start(Duration initial_delay) {
  if (running_) return;
  running_ = true;
  arm(initial_delay);
}

void PeriodicTask::stop() {
  running_ = false;
  pending_.cancel();
}

void PeriodicTask::arm(Duration delay) {
  // A cancelled event is discarded without running, so a stale `this` is
  // never dereferenced: stop() (and therefore the destructor) cancels the one
  // pending event through its handle. The event's own slot is released before
  // the callback runs, so inside the tick pending_.valid() is true only if
  // the tick itself rearmed (stop()+start()); skip the trailing rearm then to
  // keep a single pending event per task.
  pending_ = simulation_.schedule(delay, [this] {
    if (!running_) return;
    tick_();
    if (running_ && !pending_.valid()) arm(period_);
  });
}

}  // namespace soma::sim
