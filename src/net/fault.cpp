#include "net/fault.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"

namespace soma::net {
namespace {

void check_probability(double p, const char* what) {
  if (p < 0.0 || p > 1.0) {
    throw ConfigError(std::string(what) + " must be in [0, 1]");
  }
}

}  // namespace

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)), base_rng_(config_.seed) {
  check_probability(config_.default_link.drop_probability,
                    "default drop_probability");
  check_probability(config_.default_link.spike_probability,
                    "default spike_probability");
}

void FaultInjector::crash_endpoint(const Address& address, SimTime from,
                                   SimTime until) {
  check(until > from, "crash window must end after it starts");
  crashes_[address].push_back(Outage{from, until});
}

bool FaultInjector::endpoint_down(const Address& address, SimTime at) const {
  const auto it = crashes_.find(address);
  if (it == crashes_.end()) return false;
  for (const Outage& outage : it->second) {
    if (at >= outage.from && at < outage.until) return true;
  }
  return false;
}

Rng& FaultInjector::stream(NodeId src, NodeId dst) {
  const auto key = std::make_pair(src, dst);
  const auto it = streams_.find(key);
  if (it != streams_.end()) return it->second;
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
  return streams_.emplace(key, base_rng_.split(salt)).first->second;
}

FaultInjector::Decision FaultInjector::decide(NodeId src, NodeId dst,
                                              const Address& from,
                                              const Address& to,
                                              SimTime send_time,
                                              SimTime arrival) {
  Decision decision;

  // Fixed draw order (spike, then drop) on every stochastic cross-node send
  // keeps each link's stream independent of outcomes and of other links.
  double u_spike = 2.0;
  double u_drop = 2.0;
  const LinkFaults& faults = config_.default_link;
  if (src != dst && faults.stochastic()) {
    Rng& rng = stream(src, dst);
    u_spike = rng.uniform();
    u_drop = rng.uniform();
    if (u_spike < faults.spike_probability) {
      decision.extra_latency = faults.spike_latency;
      ++stats_.latency_spikes;
    }
  }
  const SimTime effective_arrival = arrival + decision.extra_latency;

  if (endpoint_down(from, send_time) || endpoint_down(to, effective_arrival)) {
    decision.drop = true;
    decision.cause = Decision::Cause::kCrash;
    ++stats_.crash_drops;
  } else if (u_drop < faults.drop_probability) {
    decision.drop = true;
    decision.cause = Decision::Cause::kRandom;
    ++stats_.random_drops;
  }
  return decision;
}

}  // namespace soma::net
