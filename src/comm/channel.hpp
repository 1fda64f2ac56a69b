// ZeroMQ-style component queues (paper §2.3.1).
//
// RADICAL-Pilot components exchange control messages via named queues: each
// component consumes from its input queue and pushes to the next component's
// queue. Here a `Channel<T>` models one such queue with a configurable
// delivery latency; messages sent before a consumer registers are buffered
// and flushed on registration (ZeroMQ late-joiner behaviour is simplified to
// lossless buffering, which is what RP relies on in practice).
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "common/types.hpp"
#include "sim/simulation.hpp"

namespace soma::comm {

template <typename T>
class Channel {
 public:
  using Consumer = std::function<void(T)>;

  Channel(sim::Simulation& simulation, std::string name,
          Duration latency = Duration::microseconds(50))
      : simulation_(simulation), name_(std::move(name)), latency_(latency) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Duration latency() const { return latency_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

  /// Enqueue a message; it reaches the consumer after the channel latency.
  /// Works for move-only payloads: the event closure owns the message.
  void put(T message) {
    auto deliver = [this, message = std::move(message)]() mutable {
      if (consumer_) {
        ++delivered_;
        consumer_(std::move(message));
      } else {
        buffer_.push_back(std::move(message));
      }
    };
    simulation_.schedule(latency_, std::move(deliver));
  }

  /// Register the consuming callback; buffered messages are delivered
  /// immediately (in order) at the current simulated time.
  void set_consumer(Consumer consumer) {
    consumer_ = std::move(consumer);
    while (consumer_ && !buffer_.empty()) {
      T msg = std::move(buffer_.front());
      buffer_.pop_front();
      ++delivered_;
      consumer_(std::move(msg));
    }
  }

 private:
  sim::Simulation& simulation_;
  std::string name_;
  Duration latency_;
  Consumer consumer_;
  std::deque<T> buffer_;
  std::uint64_t delivered_ = 0;
};

}  // namespace soma::comm
