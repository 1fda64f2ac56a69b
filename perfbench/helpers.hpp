// Small helpers shared by the benchmark driver and its self-tests: output
// digests, the tail-percentile rule, metric naming and printing, and host
// timers. Header-only; nothing here touches the simulator.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// FNV-1a over the bytes fed to it. Stable across runs, builds and hosts,
/// so a digest of simulated output can be checked against a stored reference.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void add_bytes(std::span<const std::byte> bytes) {
    add_bytes(bytes.data(), bytes.size());
  }
  void add_u64(std::uint64_t value) {
    unsigned char le[8];
    for (int i = 0; i < 8; ++i) {
      le[i] = static_cast<unsigned char>(value >> (8 * i));
    }
    add_bytes(le, sizeof le);
  }
  void add_i64(std::int64_t value) { add_u64(static_cast<std::uint64_t>(value)); }
  /// Exact bit pattern: a digest over doubles changes when any bit does.
  void add_f64(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add_u64(bits);
  }
  void add_string(std::string_view text) {
    add_u64(text.size());
    add_bytes(text.data(), text.size());
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// The highest of the reported percentiles that has at least ten samples
/// beyond it, or 0 when even the median does not (fewer than 20 samples).
[[nodiscard]] inline double tail_percentile(std::size_t samples) {
  for (double q : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(samples) * (100.0 - q) / 100.0 >= 10.0 - 1e-9) {
      return q;
    }
  }
  return 0.0;
}

/// The statistic the driver reports for a host time over repetitions: the
/// fastest one. Every repetition does the same simulated work, and other
/// tenants of a shared host (memory bandwidth and cache contention that
/// comes and goes over tens of seconds) only ever slow one down, so the
/// minimum follows the program's own cost far more steadily than the median.
/// 0 for no values.
[[nodiscard]] inline double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

/// Metric names: 1 to 64 of [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A number with every digit a double carries ("%.17g"); non-finite values
/// have no JSON spelling and print as null.
[[nodiscard]] inline std::string format_number(double value) {
  if (value != value || value > 1.7976931348623157e308 ||
      value < -1.7976931348623157e308) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// {"name": {"value": v, "unit": "u"}, ...} in the given order.
[[nodiscard]] inline std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host time spent in one kind of call: count and total, from outside.
struct OpStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;

  void add(std::int64_t ns) {
    ++count;
    total_ns += ns;
  }
  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
};

/// Run `fn` and charge its host time to `stats`.
template <typename Fn>
decltype(auto) timed(OpStats& stats, Fn&& fn) {
  const std::int64_t start = now_ns();
  struct Charge {
    OpStats& stats;
    std::int64_t start;
    ~Charge() { stats.add(now_ns() - start); }
  } charge{stats, start};
  return fn();
}

}  // namespace perfbench
