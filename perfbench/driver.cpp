// Benchmark driver: runs one workload repeatedly for a fixed host-time
// budget and prints its metrics as one JSON line (the last line of stdout).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics (host times are the fastest
// repetition, see fastest() in helpers.hpp).
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer metrics, plus the tracing overhead between the two. run.py wraps
// this binary: it builds it, checks the digest against the stored reference
// and prints the benchmark's result line.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = PERFBENCH_SANITIZED != 0;
#endif
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif
#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage_error(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<ddmd_scaling|publish_storm|publish_batched_replicated> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

constexpr double kWarmupS = 2.0;

template <typename Get>
std::vector<double> collect(const std::vector<RepResult>& reps, Get get) {
  std::vector<double> values;
  for (const RepResult& rep : reps) values.push_back(get(rep));
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage_error(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage_error("flags come in pairs");
  if (seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage_error("--seconds must be > 0 and --trace 0 or 1");
  }
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "perfbench_driver: refusing to record numbers from a %s "
                 "build (build type %s)\n",
                 kSanitized ? "sanitizer" : "unoptimised",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::function<RepResult(const RepOptions&)> rep;
  if (workload == "ddmd_scaling") {
    rep = [](const RepOptions& o) { return run_ddmd_rep(o); };
  } else if (workload == "publish_storm") {
    rep = [](const RepOptions& o) { return run_publish_rep(o, false); };
  } else if (workload == "publish_batched_replicated") {
    rep = [](const RepOptions& o) { return run_publish_rep(o, true); };
  } else {
    return usage_error(("unknown workload '" + workload + "'").c_str());
  }

  // Untimed repetitions first, for at least kWarmupS of host time, so the
  // allocator, caches and CPU clock are warm before anything is measured;
  // their output is still checked.
  std::vector<RepResult> warmups;
  const std::int64_t warmup_start = now_ns();
  while (warmups.empty() ||
         static_cast<double>(now_ns() - warmup_start) * 1e-9 < kWarmupS) {
    warmups.push_back(rep({.seed = seed}));
  }
  const RepResult& warmup = warmups.front();
  const std::int64_t start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  if (trace == 0) {
    while (untraced.size() < 2 || elapsed_s() < seconds) {
      untraced.push_back(rep({.seed = seed}));
    }
  } else {
    // Alternate so slow drift of the host hits both sides alike; the first
    // traced repetition also replays the stored records through the layers.
    while (traced.empty() || elapsed_s() < seconds) {
      untraced.push_back(rep({.seed = seed}));
      traced.push_back(
          rep({.seed = seed, .traced = true, .replay = traced.empty()}));
    }
  }
  const double rss_mb = peak_rss_mb();

  // ---- correctness gate ----
  std::vector<Check> checks;
  std::uint64_t attempted = 0, failed = 0;
  bool deterministic = true;
  const std::vector<RepResult>* all_reps[] = {&warmups, &untraced, &traced};
  for (const std::vector<RepResult>* reps : all_reps) {
    for (const RepResult& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
      deterministic = deterministic && r.digest == warmup.digest;
      for (const Check& c : r.checks) {
        if (!c.ok || &r == &warmup) checks.push_back(c);
      }
    }
  }
  checks.push_back({trace == 1 ? "traced digest == untraced digest"
                               : "same digest on every repetition",
                    deterministic, warmup.digest});
  if (workload == "ddmd_scaling") {
    checks.push_back(check_ddmd_identity(seed, warmup.pipeline_seconds));
  }

  // ---- metrics ----
  std::vector<Metric> metrics;
  if (trace == 0) {
    // Every repetition runs the same simulated work (the digests agree), so
    // the rates divide its fixed counts by the reported wall time.
    const double wall =
        fastest(collect(untraced, [](auto& r) { return r.wall_s; }));
    metrics.push_back(
        {"setup_s",
         fastest(collect(untraced, [](auto& r) { return r.setup_s; })),
         "s"});
    metrics.push_back({"wall_s", wall, "s"});
    metrics.push_back(
        {"events_per_s", static_cast<double>(warmup.events) / wall, "1/s"});
    metrics.push_back(
        {"records_per_s", static_cast<double>(warmup.records) / wall, "1/s"});
    metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  } else {
    metrics = traced.front().layers;
    const double traced_wall =
        fastest(collect(traced, [](auto& r) { return r.wall_s; }));
    const double untraced_wall =
        fastest(collect(untraced, [](auto& r) { return r.wall_s; }));
    metrics.push_back({"sim.host_ns_per_event",
                       traced_wall * 1e9 /
                           static_cast<double>(traced.front().events),
                       "ns"});
    metrics.push_back(
        {"stack.teardown_s",
         fastest(collect(traced, [](auto& r) { return r.teardown_s; })),
         "s"});
    metrics.push_back({"trace.overhead_pct",
                       (traced_wall / untraced_wall - 1.0) * 100.0, "%"});
  }
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name)) {
      checks.push_back({"metric name " + m.name, false, "invalid name"});
    }
  }

  for (const std::string& note : warmup.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string walls;
  for (const RepResult& r : untraced) walls += " " + format_number(r.wall_s);
  std::printf("# untraced wall_s per repetition:%s\n", walls.c_str());
  std::printf("# %zu warm-up, then %zu untraced + %zu traced repetitions in %.3f s\n",
              warmups.size(), untraced.size(), traced.size(), elapsed_s());
  std::string checks_json = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) checks_json += ", ";
    checks_json += "{\"name\": " + json_string(checks[i].name) +
                   ", \"ok\": " + (checks[i].ok ? "true" : "false") +
                   ", \"detail\": " + json_string(checks[i].detail) + "}";
  }
  checks_json += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"digest\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"checks\": %s, "
      "\"build\": {\"compiler\": %s, \"build_type\": %s}, \"metrics\": %s}\n",
      json_string(workload).c_str(), static_cast<unsigned long long>(seed),
      trace, json_string(warmup.digest).c_str(),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), checks_json.c_str(),
      json_string(kCompiler).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      metrics_json(metrics).c_str());
  return 0;
}
