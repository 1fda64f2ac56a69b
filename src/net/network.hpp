// Simulated interconnect fabric.
//
// Models the message-transport substrate that Mochi's Mercury RPC library
// rides on (paper §2.2). A message from node A to node B arrives after
//   latency + size / bandwidth
// plus per-link serialization: each endpoint NIC transmits messages one at a
// time, so bursts queue. Intra-node messages pay a (much smaller) loopback
// latency and no bandwidth charge.
//
// Endpoints are addressed by id on the message path, as in Mercury, where
// `margo_addr_lookup` resolves an address string once into an `hg_addr_t`:
// `bind` and `resolve` parse a `sim://nodeN:port` address once into a dense
// `EndpointId`, and `send` and delivery index one endpoint table by it. No
// string is parsed, copied or hashed per message; address strings are read
// by reference from the table only for fault verdicts, logs and reports.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "sim/simulation.hpp"

namespace soma::net {

class FaultInjector;
struct FaultConfig;

/// Endpoint address, Mercury-style URI ("sim://node3:7777").
using Address = std::string;

/// Dense id of an address in one Network's endpoint table (Mercury's
/// `hg_addr_t`). Ids are never reused for another address: rebinding an
/// address reuses its id.
enum class EndpointId : std::uint32_t {};

/// Build an address from a node id and port.
Address make_address(NodeId node, int port);
/// Parse the node id back out of an address. Throws ConfigError on a
/// malformed address.
NodeId address_node(const Address& address);

struct NetworkConfig {
  /// One-way wire latency between distinct nodes (EDR InfiniBand-class).
  Duration latency = Duration::microseconds(2);
  /// Loopback latency for same-node messages (shared-memory transport).
  Duration loopback_latency = Duration::nanoseconds(500);
  /// Link bandwidth in bytes/second (Summit: dual EDR ~ 25 GB/s practical).
  double bandwidth_bytes_per_sec = 12.5e9;
};

/// The fabric. Endpoints register a delivery callback under an address and
/// get its id; `send` schedules delivery through the simulation.
class Network {
 public:
  using Delivery =
      std::function<void(EndpointId from, std::vector<std::byte> payload)>;

  Network(sim::Simulation& simulation, NetworkConfig config = {});
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulation& simulation() { return simulation_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// Attach a deterministic fault injector (see net/fault.hpp). Replaces any
  /// previously installed injector; returns it for schedule setup. With no
  /// injector the fabric is perfect, as before.
  FaultInjector& install_faults(FaultConfig config);
  [[nodiscard]] FaultInjector* faults() { return faults_.get(); }
  [[nodiscard]] const FaultInjector* faults() const { return faults_.get(); }

  /// The id of `address`, entered in the table on first sight whether or not
  /// anything is bound there. Throws ConfigError on a malformed address.
  EndpointId resolve(const Address& address);

  /// Register an endpoint and return its id (the id the address already
  /// resolved to, if it did). Throws ConfigError if the address is bound.
  EndpointId bind(const Address& address, Delivery delivery);
  /// Remove an endpoint. Messages in flight to it are dropped (mirroring a
  /// closed Mercury endpoint) — the drops are counted per destination and
  /// visible through drops_by_endpoint(), no longer silent. Rebinding the
  /// address before a message arrives delivers it to the new binding.
  void unbind(EndpointId id);

  /// The address an id was resolved from. The reference stays valid for the
  /// network's lifetime.
  [[nodiscard]] const Address& address(EndpointId id) const {
    return endpoint(id).address;
  }

  /// Transmit `payload` from `from` to `to`. Delivery time accounts for
  /// latency, bandwidth, and per-source-NIC serialization. Returns the
  /// simulated delivery time.
  SimTime send(EndpointId from, EndpointId to, std::vector<std::byte> payload);

  // ---- accounting ----
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t messages_dropped() const {
    return messages_dropped_;
  }
  /// Drops broken down by destination address — unbound endpoints, injected
  /// faults, everything that bumps messages_dropped(). Ordered for
  /// deterministic iteration in tests and exports; addresses without drops
  /// are absent.
  [[nodiscard]] std::map<Address, std::uint64_t> drops_by_endpoint() const;

 private:
  struct Endpoint {
    Address address;
    NodeId node;
    Delivery delivery;  ///< empty while unbound
    std::uint64_t drops = 0;
  };

  [[nodiscard]] Endpoint& endpoint(EndpointId id) {
    return endpoints_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const Endpoint& endpoint(EndpointId id) const {
    return endpoints_[static_cast<std::size_t>(id)];
  }
  void deliver(EndpointId from, EndpointId to, std::vector<std::byte> payload);
  void count_drop(Endpoint& to);

  sim::Simulation& simulation_;
  NetworkConfig config_;
  /// Indexed by EndpointId. A deque, so a delivery that binds an endpoint
  /// (a callback constructing an engine) never moves the one running.
  std::deque<Endpoint> endpoints_;
  std::unordered_map<Address, EndpointId> ids_;
  // Per-source-node NIC availability, indexed by NodeId: next time the NIC
  // is free to start transmitting. Models serialization of back-to-back
  // sends.
  std::vector<SimTime> nic_free_at_;
  std::unique_ptr<FaultInjector> faults_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
};

}  // namespace soma::net
