#include "workloads/openfoam.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"

namespace soma::workloads {
namespace {

constexpr double kSerialSeconds = 12.0;  ///< non-parallelizable fraction
constexpr double kLogCoeff = 3.5;  ///< collective term (seconds * log2(r))
constexpr double kLinearCoeff = 0.45;  ///< halo/exchange term (seconds * r)

/// Slowdown per unit own-rank density and per unit other-task density.
constexpr double kSelfContention = 0.50;
constexpr double kOtherContention = 0.18;

constexpr double kNoiseSigma = 0.06;  ///< lognormal run-to-run variation

// Communication fractions (of total time) used for the TAU breakdown.
constexpr double kRecvFraction = 0.32;
constexpr double kWaitallFraction = 0.22;
constexpr double kAllreduceFraction = 0.06;

}  // namespace

OpenFoamModel::OpenFoamModel(const cluster::Platform* platform,
                             double work_core_seconds)
    : platform_(platform), work_core_seconds_(work_core_seconds) {}

double OpenFoamModel::ideal_seconds(int ranks) const {
  check(ranks > 0, "openfoam: ranks must be positive");
  const double r = static_cast<double>(ranks);
  return kSerialSeconds + work_core_seconds_ / r + kLogCoeff * std::log2(r) +
         kLinearCoeff * r;
}

double OpenFoamModel::contention_multiplier(
    const rp::Placement& placement) const {
  if (placement.ranks.empty()) return 1.0;

  // Own-rank density per node.
  std::map<NodeId, int> own_ranks;
  for (const auto& rank : placement.ranks) ++own_ranks[rank.node];

  double self_density = 0.0;
  double other_density = 0.0;
  for (const auto& [node_id, count] : own_ranks) {
    double usable = 42.0;
    double busy = 0.0;
    if (platform_ != nullptr) {
      const auto& node = platform_->node(node_id);
      usable = static_cast<double>(node.usable_cores());
      busy = static_cast<double>(node.busy_cores());
    }
    const double own = static_cast<double>(count);
    self_density += own / usable;
    // Cores busy on this node that are NOT ours (ours are allocated at
    // sampling time, so subtract them); none without a platform.
    other_density += std::max(0.0, busy - own) / usable;
  }
  const double n = static_cast<double>(own_ranks.size());
  self_density /= n;
  other_density /= n;

  const double spanned =
      static_cast<double>(placement.nodes_spanned() - 1);
  // Memory-bandwidth contention saturates: going from 20 to 40 ranks on a
  // node hurts less than going from 2 to 20 (sqrt response).
  return 1.0 + kSelfContention * std::sqrt(self_density) +
         kOtherContention * other_density + kCrossNodePenalty * spanned;
}

Duration OpenFoamModel::sample_duration(const rp::TaskDescription& task,
                                        const rp::Placement& placement,
                                        Rng& rng) const {
  const double base = ideal_seconds(task.ranks);
  const double contention = contention_multiplier(placement);
  const double noisy = rng.lognormal(base * contention, kNoiseSigma);
  return Duration::seconds(noisy);
}

OpenFoamModel::RankBreakdown OpenFoamModel::rank_breakdown(
    RankId rank, int ranks, double total_seconds) const {
  check(ranks > 0 && rank >= 0 && rank < ranks,
        "rank_breakdown: rank out of range");

  // Domain-decomposition imbalance: interior subdomains carry more work
  // (deterministic smooth profile); boundary ranks (low/high ids) compute
  // less and wait more in MPI_Recv. Rank 0 additionally coordinates I/O and
  // shows the largest MPI_Waitall share, as in Fig. 5.
  const double x = ranks == 1
                       ? 0.5
                       : static_cast<double>(rank) /
                             static_cast<double>(ranks - 1);  // 0..1
  const double interior = std::sin(x * 3.14159265358979323846);  // 0 at ends

  const double comm_fraction =
      kRecvFraction + kWaitallFraction + kAllreduceFraction;
  const double base_compute = total_seconds * (1.0 - comm_fraction);
  // +-12% of compute moves between interior and boundary ranks.
  const double compute = base_compute * (0.88 + 0.24 * interior);
  double comm = total_seconds - compute;

  RankBreakdown b;
  b.compute = compute;
  // Allreduce is a fixed collective share, equal on all ranks.
  b.mpi_allreduce = total_seconds * kAllreduceFraction;
  comm -= b.mpi_allreduce;
  // Rank 0 waits in MPI_Waitall for everyone; other ranks skew to MPI_Recv.
  const double waitall_share = rank == 0 ? 0.65 : 0.38;
  b.mpi_waitall = comm * waitall_share;
  b.mpi_recv = comm - b.mpi_waitall;
  return b;
}

std::shared_ptr<const OpenFoamModel> make_openfoam_model(
    const cluster::Platform* platform, double work_core_seconds) {
  return std::make_shared<const OpenFoamModel>(platform, work_core_seconds);
}

}  // namespace soma::workloads
