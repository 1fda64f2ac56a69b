#include "net/network.hpp"

#include <algorithm>
#include <charconv>

#include "common/error.hpp"
#include "net/fault.hpp"

namespace soma::net {

namespace {
constexpr std::string_view kScheme = "sim://node";
}

Address make_address(NodeId node, int port) {
  return std::string(kScheme) + std::to_string(node) + ":" +
         std::to_string(port);
}

NodeId address_node(const Address& address) {
  if (address.rfind(kScheme, 0) != 0) {
    throw ConfigError("malformed address: " + address);
  }
  const std::size_t start = kScheme.size();
  const std::size_t colon = address.find(':', start);
  if (colon == std::string::npos) {
    throw ConfigError("malformed address (no port): " + address);
  }
  NodeId node = -1;
  const auto result = std::from_chars(address.data() + start,
                                      address.data() + colon, node);
  if (result.ec != std::errc{} || node < 0) {
    throw ConfigError("malformed address (bad node id): " + address);
  }
  return node;
}

Network::Network(sim::Simulation& simulation, NetworkConfig config)
    : simulation_(simulation), config_(config) {
  check(config_.bandwidth_bytes_per_sec > 0, "bandwidth must be positive");
}

Network::~Network() = default;

FaultInjector& Network::install_faults(FaultConfig config) {
  faults_ = std::make_unique<FaultInjector>(std::move(config));
  return *faults_;
}

EndpointId Network::resolve(const Address& address) {
  if (const auto it = ids_.find(address); it != ids_.end()) return it->second;
  const NodeId node = address_node(address);
  const auto id = static_cast<EndpointId>(endpoints_.size());
  endpoints_.push_back(Endpoint{address, node, nullptr});
  ids_.emplace(address, id);
  const auto nodes = static_cast<std::size_t>(node) + 1;
  if (nic_free_at_.size() < nodes) nic_free_at_.resize(nodes);
  return id;
}

EndpointId Network::bind(const Address& address, Delivery delivery) {
  const EndpointId id = resolve(address);
  Endpoint& target = endpoint(id);
  if (target.delivery) throw ConfigError("address already bound: " + address);
  target.delivery = std::move(delivery);
  return id;
}

void Network::unbind(EndpointId id) { endpoint(id).delivery = nullptr; }

std::map<Address, std::uint64_t> Network::drops_by_endpoint() const {
  std::map<Address, std::uint64_t> drops;
  for (const Endpoint& e : endpoints_) {
    if (e.drops > 0) drops.emplace(e.address, e.drops);
  }
  return drops;
}

void Network::count_drop(Endpoint& to) {
  ++messages_dropped_;
  ++to.drops;
}

SimTime Network::send(EndpointId from, EndpointId to,
                      std::vector<std::byte> payload) {
  const NodeId src = endpoint(from).node;
  const NodeId dst = endpoint(to).node;
  const auto size = static_cast<double>(payload.size());

  const bool local = src == dst;
  const Duration wire_latency =
      local ? config_.loopback_latency : config_.latency;
  const Duration transfer =
      local ? Duration::zero()
            : Duration::seconds(size / config_.bandwidth_bytes_per_sec);

  // NIC serialization: a send may not start before the previous send from
  // the same node finished putting bits on the wire.
  SimTime start = simulation_.now();
  if (!local) {
    SimTime& free_at = nic_free_at_[static_cast<std::size_t>(src)];
    start = std::max(start, free_at);
    free_at = start + transfer;
  }
  SimTime arrival = start + transfer + wire_latency;

  ++messages_sent_;
  bytes_sent_ += payload.size();

  if (faults_) {
    const FaultInjector::Decision verdict =
        faults_->decide(src, dst, address(from), address(to),
                        simulation_.now(), arrival);
    if (verdict.drop) {
      count_drop(endpoint(to));
      return arrival;
    }
    arrival = arrival + verdict.extra_latency;
  }

  auto delivery = [this, from, to, data = std::move(payload)]() mutable {
    deliver(from, to, std::move(data));
  };
  static_assert(sizeof(delivery) <= sim::Simulation::Callback::kInlineSize,
                "the delivery closure must fit the event's inline buffer");
  simulation_.schedule_at(arrival, std::move(delivery));
  return arrival;
}

void Network::deliver(EndpointId from, EndpointId to,
                      std::vector<std::byte> payload) {
  Endpoint& target = endpoint(to);
  if (!target.delivery) {
    count_drop(target);
    return;
  }
  target.delivery(from, std::move(payload));
}

}  // namespace soma::net
