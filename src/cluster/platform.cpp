#include "cluster/platform.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace soma::cluster {

PlatformConfig summit(int nodes) { return PlatformConfig{.nodes = nodes}; }

ComputeNode::ComputeNode(sim::Simulation& simulation, NodeId id)
    : simulation_(simulation),
      id_(id),
      core_owner_(kUsableCores),
      core_activity_(kUsableCores, 0.0),
      gpu_owner_(kNodeGpus),
      per_core_busy_seconds_(kUsableCores, 0.0) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "cn%04d", id);
  hostname_ = buffer;
}

void ComputeNode::integrate() {
  const SimTime now = simulation_.now();
  const double dt = (now - last_change_).to_seconds();
  if (dt > 0.0) {
    for (std::size_t c = 0; c < core_owner_.size(); ++c) {
      if (!core_owner_[c].empty()) {
        const double busy = dt * core_activity_[c];
        per_core_busy_seconds_[c] += busy;
        busy_core_seconds_ += busy;
      }
    }
    busy_gpu_seconds_ += dt * static_cast<double>(busy_gpus_);
  }
  last_change_ = now;
}

std::optional<std::vector<CoreId>> ComputeNode::allocate_cores(
    int count, const std::string& owner, double activity) {
  check(count >= 0, "allocate_cores: negative count");
  check(activity >= 0.0 && activity <= 1.0,
        "allocate_cores: activity outside [0, 1]");
  if (count > free_cores()) return std::nullopt;
  integrate();
  std::vector<CoreId> claimed;
  claimed.reserve(static_cast<std::size_t>(count));
  for (std::size_t c = 0; c < core_owner_.size() &&
                          claimed.size() < static_cast<std::size_t>(count);
       ++c) {
    if (core_owner_[c].empty()) {
      core_owner_[c] = owner;
      core_activity_[c] = activity;
      claimed.push_back(static_cast<CoreId>(c));
    }
  }
  busy_cores_ += count;
  return claimed;
}

void ComputeNode::release_cores(const std::vector<CoreId>& cores,
                                const std::string& owner) {
  integrate();
  for (CoreId c : cores) {
    check(c >= 0 && static_cast<std::size_t>(c) < core_owner_.size(),
          "release_cores: core id out of range");
    check(core_owner_[static_cast<std::size_t>(c)] == owner,
          "release_cores: core not owned by releaser");
    core_owner_[static_cast<std::size_t>(c)].clear();
    core_activity_[static_cast<std::size_t>(c)] = 0.0;
  }
  busy_cores_ -= static_cast<int>(cores.size());
  check(busy_cores_ >= 0, "release_cores: busy count underflow");
}

std::optional<std::vector<GpuId>> ComputeNode::allocate_gpus(
    int count, const std::string& owner) {
  check(count >= 0, "allocate_gpus: negative count");
  if (count > free_gpus()) return std::nullopt;
  integrate();
  std::vector<GpuId> claimed;
  claimed.reserve(static_cast<std::size_t>(count));
  for (std::size_t g = 0; g < gpu_owner_.size() &&
                          claimed.size() < static_cast<std::size_t>(count);
       ++g) {
    if (gpu_owner_[g].empty()) {
      gpu_owner_[g] = owner;
      claimed.push_back(static_cast<GpuId>(g));
    }
  }
  busy_gpus_ += count;
  return claimed;
}

void ComputeNode::release_gpus(const std::vector<GpuId>& gpus,
                               const std::string& owner) {
  integrate();
  for (GpuId g : gpus) {
    check(g >= 0 && static_cast<std::size_t>(g) < gpu_owner_.size(),
          "release_gpus: gpu id out of range");
    check(gpu_owner_[static_cast<std::size_t>(g)] == owner,
          "release_gpus: gpu not owned by releaser");
    gpu_owner_[static_cast<std::size_t>(g)].clear();
  }
  busy_gpus_ -= static_cast<int>(gpus.size());
  check(busy_gpus_ >= 0, "release_gpus: busy count underflow");
}

double ComputeNode::utilization_now() const {
  if (usable_cores() == 0) return 0.0;
  double active = 0.0;
  for (std::size_t c = 0; c < core_owner_.size(); ++c) {
    if (!core_owner_[c].empty()) active += core_activity_[c];
  }
  return active / static_cast<double>(usable_cores());
}

double ComputeNode::busy_core_seconds() const {
  const double dt = (simulation_.now() - last_change_).to_seconds();
  double total = busy_core_seconds_;
  for (std::size_t c = 0; c < core_owner_.size(); ++c) {
    if (!core_owner_[c].empty()) total += dt * core_activity_[c];
  }
  return total;
}

double ComputeNode::core_busy_seconds(CoreId core) const {
  check(core >= 0 && static_cast<std::size_t>(core) < core_owner_.size(),
        "core_busy_seconds: core id out of range");
  const auto index = static_cast<std::size_t>(core);
  double busy = per_core_busy_seconds_[index];
  if (!core_owner_[index].empty()) {
    busy += (simulation_.now() - last_change_).to_seconds() *
            core_activity_[index];
  }
  return busy;
}

double ComputeNode::gpu_utilization_now() const {
  return static_cast<double>(busy_gpus_) / kNodeGpus;
}

double ComputeNode::busy_gpu_seconds() const {
  const double dt = (simulation_.now() - last_change_).to_seconds();
  return busy_gpu_seconds_ + dt * static_cast<double>(busy_gpus_);
}

Platform::Platform(sim::Simulation& simulation, PlatformConfig config)
    : simulation_(simulation), config_(config) {
  check(config_.nodes > 0, "platform must have at least one node");
  nodes_.reserve(static_cast<std::size_t>(config_.nodes));
  for (int i = 0; i < config_.nodes; ++i) {
    nodes_.emplace_back(simulation_, static_cast<NodeId>(i));
  }
}

ComputeNode& Platform::node(NodeId id) {
  check(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
        "platform: node id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

const ComputeNode& Platform::node(NodeId id) const {
  check(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
        "platform: node id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

}  // namespace soma::cluster
