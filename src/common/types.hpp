// Core value types shared by every module: simulated time, durations, ids.
//
// All simulation timestamps are carried as `SimTime`, a strong type over a
// signed 64-bit nanosecond count. Using an integral representation (rather
// than double seconds) keeps event ordering exact and runs reproducible:
// two events scheduled at the same instant compare equal on every platform.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace soma {

/// A span of simulated time, nanosecond resolution.
class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(std::int64_t nanos) : nanos_(nanos) {}

  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration nanoseconds(std::int64_t n) { return Duration{n}; }
  static constexpr Duration microseconds(std::int64_t us) {
    return Duration{us * 1'000};
  }
  static constexpr Duration milliseconds(std::int64_t ms) {
    return Duration{ms * 1'000'000};
  }
  static constexpr Duration seconds(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e9)};
  }
  static constexpr Duration minutes(double m) { return seconds(m * 60.0); }

  [[nodiscard]] constexpr std::int64_t nanos() const { return nanos_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(nanos_) * 1e-9; }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration operator+(Duration other) const {
    return Duration{nanos_ + other.nanos_};
  }
  constexpr Duration operator-(Duration other) const {
    return Duration{nanos_ - other.nanos_};
  }
  constexpr Duration operator*(double f) const {
    return Duration{static_cast<std::int64_t>(static_cast<double>(nanos_) * f)};
  }
  constexpr Duration operator/(double f) const {
    return Duration{static_cast<std::int64_t>(static_cast<double>(nanos_) / f)};
  }
  constexpr Duration& operator+=(Duration other) {
    nanos_ += other.nanos_;
    return *this;
  }
  constexpr Duration& operator-=(Duration other) {
    nanos_ -= other.nanos_;
    return *this;
  }

 private:
  std::int64_t nanos_ = 0;
};

/// An instant on the simulated clock, nanosecond resolution since t=0.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t nanos) : nanos_(nanos) {}

  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }
  static constexpr SimTime from_seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e9)};
  }

  [[nodiscard]] constexpr std::int64_t nanos() const { return nanos_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(nanos_) * 1e-9; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(Duration d) const {
    return SimTime{nanos_ + d.nanos()};
  }
  constexpr SimTime operator-(Duration d) const {
    return SimTime{nanos_ - d.nanos()};
  }
  constexpr Duration operator-(SimTime other) const {
    return Duration{nanos_ - other.nanos_};
  }
  constexpr SimTime& operator+=(Duration d) {
    nanos_ += d.nanos();
    return *this;
  }

 private:
  std::int64_t nanos_ = 0;
};

/// Identifier types. Plain integers wrapped for readability at call sites;
/// each subsystem owns allocation of its own id space.
using NodeId = std::int32_t;   ///< compute-node index within a platform
using CoreId = std::int32_t;   ///< core index within a node
using GpuId = std::int32_t;    ///< GPU index within a node
using RankId = std::int32_t;   ///< MPI rank index within a task

/// Format seconds with fixed precision for reports ("12.345").
std::string format_seconds(double seconds, int precision = 3);

}  // namespace soma
