// The SOMA-stack flags every fig/table bench accepts, and the printers for
// the stack counters those benches report.
//
//   --store-backend map|log   storage backend under the sharded store
//   --publish-batch N         coalesce client publishes into N-record
//                             batches (--batch-delay MS bounds their age)
//   --replication F           replicate every shard to F-1 successor ranks
//   --fault-seed N            run on the lossy fabric, seeded with N
//
// Absent flags leave the stack at its defaults, so the calibrated outputs
// stay byte-identical; a given flag is announced on stdout (store, batching,
// replication, in that order) except --fault-seed, whose counters the bench
// prints in its own section. Any other argument exits with status 2.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "experiments/deployment.hpp"

namespace soma::bench {

/// `text` as a non-negative decimal integer; anything else is a usage error
/// that lists `flags`.
inline std::uint64_t parse_count(const std::string& what, const char* text,
                                 const char* flags = kStackFlags) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(text, &end, 10);
  if (*text < '0' || *text > '9' || *end != '\0' || errno != 0) {
    usage_error(what + " needs a non-negative integer, got '" + text + "'",
                flags);
  }
  return value;
}

/// `text` as a decimal integer in [0, INT_MAX]; anything else, a larger
/// value included, is a usage error rather than a silently narrowed int.
inline int parse_int(const std::string& what, const char* text,
                     const char* flags = kStackFlags) {
  const std::uint64_t value = parse_count(what, text, flags);
  if (value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    usage_error(what + " is out of range, got '" + text + "'", flags);
  }
  return static_cast<int>(value);
}

/// The max-scale positional of the Scaling B sweeps (fig11, overhead
/// analysis): at least 64; absent, the whole sweep up to 512 nodes.
inline int parse_max_scale(const char* text) {
  if (text == nullptr) return 512;
  const int max_scale = parse_int("max scale", text);
  if (max_scale < 64) usage_error("max scale must be at least 64");
  return max_scale;
}

/// Parse the stack flags of argv, then print the bench's banner (header) and
/// announce the flags given, so that a usage error writes nothing to stdout.
/// The Scaling B sweeps pass `max_scale`, which receives their one positional
/// argument (parse_max_scale); for any other bench a positional argument is a
/// usage error, like an unknown flag or a flag without its value.
inline experiments::StackConfig parse_stack(int argc, char** argv,
                                            const char* artifact,
                                            const char* description,
                                            int* max_scale = nullptr) {
  experiments::StackConfig stack;
  const char* positional = nullptr;
  bool storage_set = false;
  bool batching_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (max_scale == nullptr || positional != nullptr) {
        usage_error("unexpected argument '" + arg + "'");
      }
      positional = argv[i];
      continue;
    }
    static constexpr std::string_view kFlags[] = {
        "--store-backend", "--publish-batch", "--batch-delay",
        "--replication", "--fault-seed"};
    if (std::find(std::begin(kFlags), std::end(kFlags), arg) ==
        std::end(kFlags)) {
      usage_error("unknown flag " + arg);
    }
    if (i + 1 >= argc) usage_error(arg + " needs a value");
    const char* value = argv[++i];
    if (arg == "--store-backend") {
      try {
        stack.storage.backend = core::parse_backend_kind(value);
      } catch (const Error& e) {
        usage_error(e.what());
      }
      storage_set = true;
    } else if (arg == "--publish-batch") {
      stack.batching.max_records = parse_count(arg, value);
      batching_set = true;
    } else if (arg == "--batch-delay") {
      // At least one nanosecond, and at most 2^62 ns (about 146 years), so
      // that neither the Duration nor the clock plus it can overflow.
      char* end = nullptr;
      const double seconds = std::strtod(value, &end) * 1e-3;
      const double nanos = seconds * 1e9;
      if (*end != '\0' || !(nanos >= 1.0 && nanos <= 0x1p62)) {
        usage_error("--batch-delay needs milliseconds from 1 ns to 2^62 ns");
      }
      stack.batching.max_delay = Duration::seconds(seconds);
      batching_set = true;
    } else if (arg == "--replication") {
      stack.replication.factor = parse_int(arg, value);
      if (!stack.replication.enabled()) {
        usage_error("--replication needs a factor >= 2");
      }
    } else {  // --fault-seed
      // The lossy fabric every fault-seeded run shares: 1% drops and 2%
      // latency spikes on every cross-node link, with client retry (4
      // attempts, 100 ms timeout) and buffer-and-replay (5 s probe).
      net::FaultConfig faults;
      faults.seed = parse_count(arg, value);
      faults.default_link.drop_probability = 0.01;
      faults.default_link.spike_probability = 0.02;
      stack.faults = faults;
      stack.reliability.retry.max_attempts = 4;
      stack.reliability.retry.timeout = Duration::milliseconds(100);
      stack.reliability.buffer_on_failure = true;
      stack.reliability.probe_period = Duration::seconds(5);
    }
  }
  if (max_scale != nullptr) *max_scale = parse_max_scale(positional);
  header(artifact, description);
  if (storage_set) {
    std::printf("store backend: %s\n",
                std::string(core::to_string(stack.storage.backend)).c_str());
  }
  if (batching_set) {
    std::printf("publish batching: max_records=%zu max_delay=%.1fms\n",
                stack.batching.max_records,
                stack.batching.max_delay.to_seconds() * 1e3);
  }
  if (stack.replication.enabled()) {
    std::printf("replication: factor=%d\n", stack.replication.factor);
  }
  return stack;
}

inline std::string fault_section_title(const experiments::StackConfig& stack) {
  std::string title = "fault injection (seed ";
  title += std::to_string(stack.faults->seed);
  title += ')';
  return title;
}

/// Fig. 10/11: the fault and replication counters summed over every run of
/// the sweep; each section prints only when its flag was given.
inline void print_stack_sections(
    const experiments::StackConfig& stack,
    const std::vector<experiments::StackTotals>& runs) {
  using T = experiments::StackTotals;
  const auto sum = [&](std::uint64_t T::*field) {
    unsigned long long total = 0;
    for (const T& run : runs) total += run.*field;
    return total;
  };
  if (stack.faults) {
    section(fault_section_title(stack).c_str());
    std::printf("  network drops:    %llu\n", sum(&T::net_drops));
    std::printf("  rpc retries:      %llu\n", sum(&T::rpc_retries));
    std::printf("  publish failures: %llu\n", sum(&T::publish_failures));
    std::printf("  replayed:         %llu\n", sum(&T::replayed_publishes));
  }
  if (stack.replication.enabled()) {
    std::string title = "replication (factor ";
    title += std::to_string(stack.replication.factor);
    title += ')';
    section(title.c_str());
    std::printf("  records replicated: %llu\n", sum(&T::records_replicated));
    std::printf("  resync records:     %llu\n", sum(&T::resync_records));
    std::printf("  crash wipes:        %llu\n", sum(&T::crash_wipes));
    std::printf("  ranks recovered:    %llu\n", sum(&T::ranks_recovered));
  }
}

/// Table 1/2: the shard balance of each named run, then (with --fault-seed)
/// each run's fault counters.
inline void print_run_tables(
    const experiments::StackConfig& stack,
    const std::vector<std::pair<const char*, experiments::StackTotals>>&
        runs) {
  section("store shard balance (records routed per service rank)");
  TextTable shards({"run", "shards", "records/shard min", "max", "imbalance"});
  for (const auto& [name, t] : runs) {
    const double imbalance =
        t.shard_records_min == 0
            ? 0.0
            : static_cast<double>(t.shard_records_max) /
                  static_cast<double>(t.shard_records_min);
    shards.add_row({name, std::to_string(t.store_shards),
                    std::to_string(t.shard_records_min),
                    std::to_string(t.shard_records_max),
                    t.store_shards > 1 ? fmt(imbalance, 2) + "x" : "n/a"});
  }
  std::printf("%s", shards.to_string().c_str());

  if (!stack.faults) return;
  section(fault_section_title(stack).c_str());
  TextTable faults(
      {"run", "net drops", "rpc retries", "publish failures", "replayed"});
  for (const auto& [name, t] : runs) {
    faults.add_row({name, std::to_string(t.net_drops),
                    std::to_string(t.rpc_retries),
                    std::to_string(t.publish_failures),
                    std::to_string(t.replayed_publishes)});
  }
  std::printf("%s", faults.to_string().c_str());
}

}  // namespace soma::bench
