#include "analysis/advisor.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "rp/states.hpp"
#include "soma/namespaces.hpp"

namespace soma::analysis {

double FreeResourceReport::mean_utilization() const {
  if (nodes.empty()) return 0.0;
  double total = 0.0;
  for (const auto& node : nodes) total += node.mean_utilization;
  return total / static_cast<double>(nodes.size());
}

double FreeResourceReport::mean_gpu_utilization() const {
  if (nodes.empty()) return 0.0;
  double total = 0.0;
  for (const auto& node : nodes) total += node.mean_gpu_utilization;
  return total / static_cast<double>(nodes.size());
}

HostReading read_host(const core::TimedRecord& record,
                      const std::string& host) {
  HostReading reading;
  const auto* host_node = record.data.find_child(host);
  if (host_node == nullptr) return reading;
  if (const auto* util = host_node->find_child("cpu_utilization")) {
    reading.cpu = util->to_float64();
  }
  if (const auto* gpu = host_node->find_child("gpu_utilization")) {
    reading.gpu = gpu->to_float64();
  }
  // Latest RAM figure from the newest timestamped snapshot block.
  for (std::size_t i = 0; i < host_node->number_of_children(); ++i) {
    const auto* ram = host_node->child_at(i).find_child("Available RAM");
    if (ram != nullptr) reading.available_ram_mib = ram->as_int64();
  }
  return reading;
}

UtilizationSeries utilization_series(const core::StoreView& view) {
  UtilizationSeries out;
  for (const std::string& host : view.sources(core::Namespace::kHardware)) {
    auto& series = out[host];
    for (const auto* record : view.series(core::Namespace::kHardware, host)) {
      const HostReading reading = read_host(*record, host);
      if (reading.cpu) {
        series.push_back({record->time.to_seconds(), *reading.cpu,
                          reading.gpu.value_or(0.0)});
      }
    }
  }
  return out;
}

FreeResourceReport analyze_hardware(const core::StoreView& view) {
  FreeResourceReport report;
  for (const std::string& host :
       view.sources(core::Namespace::kHardware)) {
    FreeResourceReport::NodeReport node;
    node.hostname = host;
    double sum = 0.0;
    std::size_t count = 0;
    double gpu_sum = 0.0;
    std::size_t gpu_count = 0;
    for (const auto* record : view.series(core::Namespace::kHardware, host)) {
      const HostReading reading = read_host(*record, host);
      if (reading.cpu) {
        sum += *reading.cpu;
        ++count;
        node.last_utilization = *reading.cpu;
      }
      if (reading.gpu) {
        gpu_sum += *reading.gpu;
        ++gpu_count;
        node.last_gpu_utilization = *reading.gpu;
      }
      node.available_ram_mib =
          reading.available_ram_mib.value_or(node.available_ram_mib);
    }
    if (count > 0) node.mean_utilization = sum / static_cast<double>(count);
    if (gpu_count > 0) {
      node.mean_gpu_utilization = gpu_sum / static_cast<double>(gpu_count);
    }
    report.nodes.push_back(std::move(node));
  }
  return report;
}

std::vector<ProgressPoint> workflow_progress(const core::StoreView& view,
                                             const std::string& source) {
  std::vector<ProgressPoint> out;
  for (const auto* record :
       view.series(core::Namespace::kWorkflow, source)) {
    const auto* summary = record->data.find_child("summary");
    if (summary == nullptr) continue;
    ProgressPoint point;
    point.time = record->time;
    point.done = summary->fetch_existing("tasks_done").as_int64();
    point.executing = summary->fetch_existing("tasks_executing").as_int64();
    point.pending = summary->fetch_existing("tasks_pending").as_int64();
    point.throughput_per_min =
        summary->fetch_existing("throughput_per_min").to_float64();
    out.push_back(point);
  }
  return out;
}

std::vector<std::pair<SimTime, std::string>> observed_task_starts(
    const core::StoreView& view, const std::string& source) {
  std::vector<std::pair<SimTime, std::string>> out;
  for (const auto* record :
       view.series(core::Namespace::kWorkflow, source)) {
    const auto* events = record->data.find_child("events");
    if (events == nullptr) continue;
    for (std::size_t u = 0; u < events->number_of_children(); ++u) {
      const std::string_view uid = events->child_names()[u];
      const auto& per_task = events->child_at(u);
      for (std::size_t e = 0; e < per_task.number_of_children(); ++e) {
        if (per_task.child_at(e).as_string() ==
            rp::to_string(rp::Event::kRankStart)) {
          const SimTime at{std::stoll(std::string(per_task.child_names()[e]))};
          out.emplace_back(at, std::string(uid));
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

DdmdAdvice advise_ddmd(const FreeResourceReport& hardware, int gpus_free,
                       int current_train_tasks) {
  DdmdAdvice advice;
  advice.train_tasks = current_train_tasks;
  advice.cores_per_sim_task = 3;

  const double utilization = hardware.mean_utilization();
  if (utilization < 0.35) {
    // CPUs are mostly idle: the work is on the GPUs (paper Fig. 9 finding).
    // Fewer host cores per task frees nothing useful; instead use idle GPUs
    // by parallelizing training.
    advice.cores_per_sim_task = 1;
    if (gpus_free > 0) {
      advice.train_tasks =
          std::min(current_train_tasks + gpus_free, current_train_tasks * 2);
      advice.rationale =
          "CPU utilization low and GPUs idle: parallelize training across " +
          std::to_string(advice.train_tasks) + " tasks";
    } else {
      advice.rationale =
          "CPU utilization low but no GPU headroom: keep training at " +
          std::to_string(current_train_tasks);
    }
  } else if (utilization > 0.8) {
    advice.cores_per_sim_task = 7;
    advice.rationale =
        "CPU utilization high: give simulation tasks more host cores";
  } else {
    advice.rationale = "utilization moderate: keep current configuration";
  }
  return advice;
}

}  // namespace soma::analysis
