// Shared helpers for the reproduction benches. Every bench prints a header
// naming the paper artifact it regenerates, the table/series data, and a
// "paper vs measured" comparison where the paper states numbers. Micro
// benches additionally record machine-readable results via
// record_bench_json, seeding the perf trajectory across PRs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "datamodel/node.hpp"
#include "soma/batcher.hpp"
#include "soma/replication.hpp"
#include "soma/storage_backend.hpp"

namespace soma::bench {

/// Consume a `--store-backend <map|log>` argument pair from argv, if
/// present, and return the selected storage config (defaults otherwise).
/// The matched pair is removed from argv so positional parsing stays
/// simple. Announces a non-default backend on stdout — benches that must
/// stay byte-identical to their calibrated baselines print nothing extra
/// when the flag is absent.
inline core::StorageConfig parse_store_backend(int& argc, char** argv) {
  core::StorageConfig storage;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--store-backend") continue;
    check(i + 1 < argc, "--store-backend needs a value (map|log)");
    storage.backend = core::parse_backend_kind(argv[i + 1]);
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    std::printf("store backend: %s\n",
                std::string(core::to_string(storage.backend)).c_str());
    break;
  }
  return storage;
}

/// Consume `--publish-batch <N>` (records per batch; 0 = off) and
/// `--batch-delay <ms>` (flush-age bound) argument pairs from argv, if
/// present, and return the resulting coalescing config. Matched pairs are
/// removed from argv; like parse_store_backend, nothing is printed when the
/// flags are absent so calibrated default outputs stay byte-identical.
inline core::BatchingConfig parse_publish_batch(int& argc, char** argv) {
  core::BatchingConfig batching;
  auto consume = [&](const char* flag, auto apply) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) != flag) continue;
      check(i + 1 < argc, "--publish-batch/--batch-delay needs a value");
      apply(argv[i + 1]);
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return true;
    }
    return false;
  };
  const bool batch_set = consume("--publish-batch", [&](const char* value) {
    batching.max_records =
        static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
  });
  const bool delay_set = consume("--batch-delay", [&](const char* value) {
    const double ms = std::strtod(value, nullptr);
    check(ms > 0.0, "--batch-delay needs a positive millisecond value");
    batching.max_delay = Duration::seconds(ms * 1e-3);
  });
  if (batch_set || delay_set) {
    std::printf("publish batching: max_records=%zu max_delay=%.1fms\n",
                batching.max_records,
                batching.max_delay.to_seconds() * 1e3);
  }
  return batching;
}

/// Result of `parse_fault_seed`: whether `--fault-seed <N>` was present, and
/// the seed if so. The caller applies it with apply_lossy_fabric and prints
/// its own fault section; benches that must stay byte-identical to
/// calibrated baselines print nothing when the flag is absent, so this
/// helper stays silent.
struct FaultSeedArg {
  bool enabled = false;
  std::uint64_t seed = 1;
};

/// Consume a `--fault-seed <N>` argument pair from argv, if present.
inline FaultSeedArg parse_fault_seed(int& argc, char** argv) {
  FaultSeedArg arg;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--fault-seed") continue;
    check(i + 1 < argc, "--fault-seed needs a value");
    arg.enabled = true;
    arg.seed = std::strtoull(argv[i + 1], nullptr, 10);
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    break;
  }
  return arg;
}

/// When `--fault-seed` was given, put an experiment config on the lossy
/// fabric every fault-seeded bench shares: 1% drops and 2% latency spikes
/// seeded from the flag, with client retry (4 attempts, 100 ms timeout) and
/// buffer-and-replay (5 s probe). Leaves the config untouched otherwise.
template <typename ExperimentConfig>
void apply_lossy_fabric(ExperimentConfig& config, const FaultSeedArg& fault) {
  if (!fault.enabled) return;
  config.faults.enabled = true;
  config.faults.fault_seed = fault.seed;
  config.faults.drop_probability = 0.01;
  config.faults.spike_probability = 0.02;
  config.reliability.retry.max_attempts = 4;
  config.reliability.retry.timeout = Duration::milliseconds(100);
  config.reliability.buffer_on_failure = true;
  config.reliability.probe_period = Duration::seconds(5);
}

/// Consume a `--replication <factor>` argument pair from argv, if present,
/// and return the resulting replication config (factor 1 = off, the
/// default). Announces the factor when present; silent otherwise so the
/// calibrated unreplicated outputs stay byte-identical.
inline core::ReplicationConfig parse_replication(int& argc, char** argv) {
  core::ReplicationConfig replication;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--replication") continue;
    check(i + 1 < argc, "--replication needs a value (factor >= 2)");
    replication.factor =
        static_cast<int>(std::strtol(argv[i + 1], nullptr, 10));
    check(replication.factor >= 2, "--replication needs a factor >= 2");
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    std::printf("replication: factor=%d\n", replication.factor);
    break;
  }
  return replication;
}

inline void header(const char* artifact, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("================================================================\n");
}

inline void section(const char* title) { std::printf("\n-- %s --\n", title); }

inline std::string fmt(double value, int precision = 1) {
  return format_seconds(value, precision);
}

inline std::string fmt_pct(double fraction, int precision = 1) {
  return format_seconds(fraction * 100.0, precision) + "%";
}

/// A percentage with its sign always shown: "+2.1%", "-6.5%".
inline std::string fmt_signed_pct(double percent, int precision = 1) {
  std::string out = percent >= 0 ? "+" : "";
  out += fmt(percent, precision);
  out += '%';
  return out;
}

/// One row of a summary distribution: mean ± σ [min, max].
inline std::string fmt_summary(const Summary& s) {
  return fmt(s.mean) + " ± " + fmt(s.stddev) + "  [" + fmt(s.min) + ", " +
         fmt(s.max) + "]";
}

inline void paper_vs_measured(const char* what, const std::string& paper,
                              const std::string& measured) {
  std::printf("  paper: %-34s measured: %s  (%s)\n", paper.c_str(),
              measured.c_str(), what);
}

/// Merge `results` into the JSON document at `path` under key `suite`,
/// preserving any other suites already recorded there (the two micro benches
/// share one BENCH_micro.json). Unparseable or missing files start fresh.
inline void record_bench_json(const std::string& path,
                              const std::string& suite,
                              const datamodel::Node& results) {
  datamodel::Node root;
  if (std::ifstream in{path}) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      root = datamodel::Node::parse_json(buffer.str());
    } catch (const Error&) {
      root.reset();  // corrupt file: rewrite from scratch
    }
  }
  root.child(suite) = results;
  std::ofstream out(path, std::ios::trunc);
  out << root.to_json(2) << "\n";
  std::printf("\nrecorded %zu results under '%s' in %s\n",
              results.number_of_children(), suite.c_str(), path.c_str());
}

}  // namespace soma::bench
