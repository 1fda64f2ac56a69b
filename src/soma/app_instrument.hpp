// SOMA application-instrumentation API (paper §2.3.2, "Application
// Namespace").
//
// "The application may have useful custom information to be monitored, i.e.,
// the scientific rate-of-progress or figure-of-merit self-reported by the
// application. For example, a molecular dynamics code might want to capture
// the atom-timesteps per second... capturing this data typically requires
// application instrumentation with SOMA's API."
//
// This is that API: an application links the client stub, creates an
// AppInstrument, reports named metrics as it computes, and commits batches
// to the application-namespace instance. The paper's experiments do not use
// this namespace; the library provides it (tested, and demonstrated by the
// md_figure_of_merit example).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "soma/client.hpp"

namespace soma::core {

class AppInstrument {
 public:
  /// `client` must target the application namespace; `app_id` tags every
  /// record (the store source key), e.g. "md.run42".
  AppInstrument(SomaClient& client, std::string app_id);

  [[nodiscard]] const std::string& app_id() const { return app_id_; }

  /// Record a figure-of-merit sample, buffered until commit(). Repeated
  /// reports of the same name before a commit overwrite (latest wins).
  void report_metric(const std::string& name, double value);
  void report_metric(const std::string& name, std::int64_t value);

  /// Record scientific progress in [0, 1]; clamped.
  void report_progress(double fraction);

  /// Publish everything buffered since the last commit as one record:
  ///   APP/<app_id>/<timestamp ns>/<metric> = value
  /// No-op when nothing is buffered. Returns true if a publish happened.
  bool commit();

  [[nodiscard]] std::uint64_t commits() const { return commits_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  SomaClient& client_;
  std::string app_id_;
  std::map<std::string, datamodel::Node> buffer_;
  std::uint64_t commits_ = 0;
};

}  // namespace soma::core
