// OpenFOAM / AdditiveFOAM task model (paper §3.1, ExaAM melt-pool workflow).
//
// The paper runs AdditiveFOAM tasks at 20/41/82/164 MPI ranks (0.5 to 4
// Summit nodes) and observes (Fig. 4) limited benefit beyond two nodes. We
// model the execution time of one task as
//
//   T(r, placement) = (T_serial + W/r + c_log * log2(r) + c_lin * r)
//                     * contention(placement) * noise
//
// where the linear term models the growing halo-exchange/collective cost
// that flattens the strong-scaling curve, and contention(placement) captures
// memory-bandwidth pressure: ranks packed densely on a node slow each other
// (self density), ranks sharing a node with other busy tasks slow further
// (other density), and spanning nodes adds a small network penalty. This is
// the mechanism behind the placement effects of Fig. 6.
//
// The same model exposes a consistent per-rank MPI time breakdown for the
// TAU plugin (Fig. 5): communication time is split between MPI_Recv,
// MPI_Waitall, and MPI_Allreduce, with a deterministic per-rank imbalance
// profile.
#pragma once

#include <memory>

#include "cluster/platform.hpp"
#include "rp/execution_model.hpp"
#include "rp/task.hpp"

namespace soma::workloads {

/// Contention slowdown per additional node a placement spans.
inline constexpr double kCrossNodePenalty = 0.008;

class OpenFoamModel final : public rp::ExecutionModel {
 public:
  /// `platform` (optional) enables contention terms that read live node
  /// occupancy at rank_start; pass nullptr for a placement-only model.
  /// `work_core_seconds` is the parallel work W.
  explicit OpenFoamModel(const cluster::Platform* platform,
                         double work_core_seconds = 7200.0);

  [[nodiscard]] Duration sample_duration(const rp::TaskDescription& task,
                                         const rp::Placement& placement,
                                         Rng& rng) const override;

  /// Deterministic part of the duration (no contention, no noise): the pure
  /// strong-scaling curve used for calibration and tests.
  [[nodiscard]] double ideal_seconds(int ranks) const;

  /// Contention multiplier (>= 1) for a placement at this instant.
  [[nodiscard]] double contention_multiplier(
      const rp::Placement& placement) const;

  /// Per-rank time breakdown for the TAU plugin. Returns, for `rank` of
  /// `ranks` total and a total runtime `total_seconds`, the seconds spent in
  /// {compute, MPI_Recv, MPI_Waitall, MPI_Allreduce}. The split is
  /// deterministic in (rank, ranks) and sums to total_seconds.
  struct RankBreakdown {
    double compute = 0.0;
    double mpi_recv = 0.0;
    double mpi_waitall = 0.0;
    double mpi_allreduce = 0.0;

    [[nodiscard]] double total() const {
      return compute + mpi_recv + mpi_waitall + mpi_allreduce;
    }
  };
  [[nodiscard]] RankBreakdown rank_breakdown(RankId rank, int ranks,
                                             double total_seconds) const;

 private:
  const cluster::Platform* platform_;
  double work_core_seconds_;
};

/// Convenience factory returning a shared model for task descriptions.
std::shared_ptr<const OpenFoamModel> make_openfoam_model(
    const cluster::Platform* platform, double work_core_seconds = 7200.0);

}  // namespace soma::workloads
