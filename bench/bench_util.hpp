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

namespace soma::bench {

/// Print the banner. A bench calls it (or parse_stack, which does) only after
/// it has checked argv, so that a usage error writes nothing to stdout.
inline void header(const char* artifact, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("================================================================\n");
}

inline void section(const char* title) { std::printf("\n-- %s --\n", title); }

/// The stack flags of bench_stack.hpp, as a usage line.
inline constexpr const char* kStackFlags =
    "--store-backend map|log, --publish-batch N [--batch-delay MS], "
    "--replication F, --fault-seed N";

/// Print `message` and the flags the program takes (by default the stack
/// flags) to stderr, then exit with status 2.
[[noreturn]] inline void usage_error(const std::string& message,
                                     const char* flags = kStackFlags) {
  std::fprintf(stderr, "error: %s\nflags: %s\n", message.c_str(), flags);
  std::exit(2);
}

/// A bench that takes no arguments calls this first: any argument is a
/// usage error rather than silently ignored.
inline void reject_arguments(int argc, char** argv) {
  if (argc < 2) return;
  std::string message = "unexpected argument '";
  message += argv[1];
  message += '\'';
  usage_error(message, "none");
}

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
