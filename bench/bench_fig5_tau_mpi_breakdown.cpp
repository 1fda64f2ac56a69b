// Fig. 5: per-rank MPI time from the TAU SOMA plugin (paper §4.1).
//
// Zooms in on one 164-rank OpenFOAM task: for each rank, the time spent in
// MPI_Recv / MPI_Waitall / MPI_Allreduce vs compute, as recovered *from the
// SOMA performance namespace* (the profile travelled client -> RPC ->
// service store -> analysis). The paper's observation: "a large portion of
// time for each rank is spent in MPI_Recv() and MPI_Waitall()".

#include <map>

#include "bench_stack.hpp"
#include "experiments/openfoam_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Figure 5",
      "TAU profile: per-rank MPI time of one 164-rank task");

  // The tuning run is enough: it publishes one 164-rank profile.
  auto config = OpenFoamExperimentConfig::tuning();
  config.stack() = stack;
  const OpenFoamResult result = run_openfoam_experiment(config);
  const profiler::TauProfile& profile = result.sample_profile;
  if (profile.ranks.empty()) {
    std::printf("ERROR: no TAU profile captured\n");
    return 1;
  }

  std::printf("task %s: %zu ranks\n", profile.task_uid.c_str(),
              profile.ranks.size());

  // Print a subsample of ranks (every 16th) like the figure's x-axis.
  TextTable table({"rank", "host", "compute (s)", "MPI_Recv", "MPI_Waitall",
                   "MPI_Allreduce", "MPI %"});
  for (std::size_t r = 0; r < profile.ranks.size(); r += 16) {
    const auto& rank = profile.ranks[r];
    const double compute = rank.inclusive_seconds.at("compute");
    const double recv = rank.inclusive_seconds.at("MPI_Recv");
    const double waitall = rank.inclusive_seconds.at("MPI_Waitall");
    const double allreduce = rank.inclusive_seconds.at("MPI_Allreduce");
    const double mpi_fraction =
        (recv + waitall + allreduce) / rank.total_seconds();
    table.add_row({std::to_string(rank.rank), rank.hostname,
                   bench::fmt(compute), bench::fmt(recv), bench::fmt(waitall),
                   bench::fmt(allreduce), bench::fmt_pct(mpi_fraction)});
  }
  std::printf("%s", table.to_string().c_str());

  // Aggregate shape checks.
  double recv_total = 0.0, waitall_total = 0.0, allreduce_total = 0.0,
         wall_total = 0.0;
  for (const auto& rank : profile.ranks) {
    recv_total += rank.inclusive_seconds.at("MPI_Recv");
    waitall_total += rank.inclusive_seconds.at("MPI_Waitall");
    allreduce_total += rank.inclusive_seconds.at("MPI_Allreduce");
    wall_total += rank.total_seconds();
  }
  const auto mpi = profile.mpi_seconds_per_rank();
  const double imbalance = load_imbalance(mpi);

  bench::section("paper-vs-measured (shape)");
  bench::paper_vs_measured(
      "large share of time in MPI_Recv + MPI_Waitall", "yes",
      (recv_total + waitall_total) / wall_total > 0.3
          ? "yes (" + bench::fmt_pct((recv_total + waitall_total) / wall_total) +
                " of wall time)"
          : "NO");
  bench::paper_vs_measured("MPI_Recv dominates MPI_Allreduce", "yes",
                           recv_total > allreduce_total ? "yes" : "NO");
  bench::paper_vs_measured(
      "per-rank MPI-time imbalance observable", "yes",
      imbalance > 0.02 ? "yes (max/mean - 1 = " + bench::fmt(imbalance, 3) + ")"
                       : "NO");
  return 0;
}
