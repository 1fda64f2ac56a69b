#include "profiler/tau.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace soma::profiler {

double RankProfile::total_seconds() const {
  double total = 0.0;
  for (const auto& [fn, seconds] : inclusive_seconds) total += seconds;
  return total;
}

std::vector<double> TauProfile::mpi_seconds_per_rank() const {
  std::vector<double> out;
  out.reserve(ranks.size());
  for (const auto& rank : ranks) {
    double mpi = 0.0;
    for (const auto& [fn, seconds] : rank.inclusive_seconds) {
      if (fn.rfind("MPI_", 0) == 0) mpi += seconds;
    }
    out.push_back(mpi);
  }
  return out;
}

datamodel::Node TauProfile::to_node() const {
  datamodel::Node node;
  datamodel::Node& task = node[task_uid];
  for (const auto& rank : ranks) {
    char key[32];
    std::snprintf(key, sizeof(key), "rank_%04d", rank.rank);
    datamodel::Node& r = task[rank.hostname][key];
    for (const auto& [fn, seconds] : rank.inclusive_seconds) {
      r[fn].set(seconds);
    }
  }
  return node;
}

TauProfile TauProfile::from_node(const std::string& task_uid,
                                 const datamodel::Node& node) {
  TauProfile profile;
  profile.task_uid = task_uid;
  const datamodel::Node& task = node.fetch_existing(task_uid);
  for (std::size_t h = 0; h < task.number_of_children(); ++h) {
    const std::string_view hostname = task.child_names()[h];
    const datamodel::Node& host = task.child_at(h);
    for (std::size_t r = 0; r < host.number_of_children(); ++r) {
      const std::string_view rank_key = host.child_names()[r];
      check(rank_key.rfind("rank_", 0) == 0,
            "TauProfile::from_node: malformed rank key");
      RankProfile rank;
      rank.rank =
          static_cast<RankId>(std::stoi(std::string(rank_key.substr(5))));
      rank.hostname = hostname;
      const datamodel::Node& fns = host.child_at(r);
      for (std::size_t f = 0; f < fns.number_of_children(); ++f) {
        rank.inclusive_seconds[std::string(fns.child_names()[f])] =
            fns.child_at(f).to_float64();
      }
      profile.ranks.push_back(std::move(rank));
    }
  }
  return profile;
}

TauProfile profile_openfoam_task(const rp::Task& task,
                                 const workloads::OpenFoamModel& model,
                                 const cluster::Platform& platform) {
  check(task.placement().has_value(), "profile: task has no placement");
  const auto duration = task.rank_duration();
  check(duration.has_value(), "profile: task has not completed its ranks");
  const double total = duration->to_seconds();
  const int ranks = static_cast<int>(task.placement()->ranks.size());

  TauProfile profile;
  profile.task_uid = task.uid();
  profile.ranks.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    const auto breakdown =
        model.rank_breakdown(static_cast<RankId>(r), ranks, total);
    RankProfile rank;
    rank.rank = static_cast<RankId>(r);
    rank.hostname =
        platform.node(task.placement()->ranks[static_cast<std::size_t>(r)].node)
            .hostname();
    rank.inclusive_seconds["compute"] = breakdown.compute;
    rank.inclusive_seconds["MPI_Recv"] = breakdown.mpi_recv;
    rank.inclusive_seconds["MPI_Waitall"] = breakdown.mpi_waitall;
    rank.inclusive_seconds["MPI_Allreduce"] = breakdown.mpi_allreduce;
    profile.ranks.push_back(std::move(rank));
  }
  return profile;
}

void TauSomaPlugin::publish(const TauProfile& profile) {
  check(client_.target_namespace() == core::Namespace::kPerformance,
        "TAU plugin requires a performance-namespace client");
  client_.publish(profile.task_uid, profile.to_node());
  ++published_;
}

}  // namespace soma::profiler
