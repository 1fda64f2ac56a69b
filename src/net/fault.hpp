// Deterministic network fault injection.
//
// The simulated fabric is perfect by default; production interconnects and
// the services riding on them are not. A `FaultInjector` attached to a
// `Network` (via `Network::install_faults`) perturbs message delivery with
// three failure modes, all driven by seeded `common::rng` streams so that two
// runs at the same seed produce bit-identical traces:
//
//   * per-link random drops       — each (src, dst) node pair loses a message
//                                   with a configurable probability;
//   * per-link latency spikes     — a message occasionally arrives late by a
//                                   fixed penalty (congestion, retransmit);
//   * endpoint crash/restart      — an address is unreachable during declared
//                                   outage windows (messages arriving while it
//                                   is down are lost, as are messages it sends).
//
// Determinism contract: every (src, dst) link owns an independent rng stream
// split from the base seed, and exactly two uniforms are drawn per cross-node
// send on a stochastic link (spike first, then drop). Adding crash windows
// never consumes randomness, so schedule changes do not perturb the random
// drop pattern of unrelated links. Intra-node (loopback) messages are exempt
// from link faults but not from endpoint crashes.
//
// With no injector installed — or an injector whose probabilities are all
// zero and with no schedules — a run is byte-identical to the fault-free
// baseline (the fig10/fig11 calibration contract).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace soma::net {

/// Endpoint address (same alias as net/network.hpp, kept header-local to
/// avoid a circular include: Network owns the injector).
using Address = std::string;

/// Stochastic faults of one directed (src, dst) node link.
struct LinkFaults {
  /// Probability a message on this link is silently lost.
  double drop_probability = 0.0;
  /// Probability a delivered message is delayed by `spike_latency`.
  double spike_probability = 0.0;
  Duration spike_latency = Duration::microseconds(50);

  [[nodiscard]] bool stochastic() const {
    return drop_probability > 0.0 || spike_probability > 0.0;
  }
};

struct FaultConfig {
  /// Base seed for the per-link rng streams (experiments: `--fault-seed`).
  std::uint64_t seed = 1;
  /// Faults applied to every cross-node link.
  LinkFaults default_link{};
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config = {});

  [[nodiscard]] const FaultConfig& config() const { return config_; }

  /// Declare an outage window [from, until) during which `address` is
  /// unreachable: messages arriving in the window are dropped, and messages
  /// the endpoint sends while down are dropped too. Windows may be stacked.
  void crash_endpoint(const Address& address, SimTime from, SimTime until);

  [[nodiscard]] bool endpoint_down(const Address& address, SimTime at) const;

  /// Verdict for one message. Consulted by Network::send after it computed
  /// the fault-free arrival time; `extra_latency` (spikes) applies only when
  /// the message is delivered.
  struct Decision {
    enum class Cause : std::uint8_t { kNone, kRandom, kCrash };
    bool drop = false;
    Cause cause = Cause::kNone;
    Duration extra_latency = Duration::zero();
  };
  Decision decide(NodeId src, NodeId dst, const Address& from,
                  const Address& to, SimTime send_time, SimTime arrival);

  struct Stats {
    std::uint64_t random_drops = 0;
    std::uint64_t crash_drops = 0;
    std::uint64_t latency_spikes = 0;

    [[nodiscard]] std::uint64_t total_drops() const {
      return random_drops + crash_drops;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Outage {
    SimTime from;
    SimTime until;  // exclusive
  };

  Rng& stream(NodeId src, NodeId dst);

  FaultConfig config_;
  Rng base_rng_;
  std::map<std::pair<NodeId, NodeId>, Rng> streams_;
  std::map<Address, std::vector<Outage>> crashes_;
  Stats stats_;
};

}  // namespace soma::net
