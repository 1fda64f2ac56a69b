#include "soma/app_instrument.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace soma::core {

AppInstrument::AppInstrument(SomaClient& client, std::string app_id)
    : client_(client), app_id_(std::move(app_id)) {
  check(client_.target_namespace() == Namespace::kApplication,
        "AppInstrument requires an application-namespace client");
  check(!app_id_.empty(), "AppInstrument requires a non-empty app id");
}

void AppInstrument::report_metric(const std::string& name, double value) {
  buffer_[name].set(value);
}

void AppInstrument::report_metric(const std::string& name,
                                  std::int64_t value) {
  buffer_[name].set(value);
}

void AppInstrument::report_progress(double fraction) {
  report_metric("progress", std::clamp(fraction, 0.0, 1.0));
}

bool AppInstrument::commit() {
  if (buffer_.empty()) return false;
  datamodel::Node record;
  datamodel::Node& at =
      record[app_id_]
            [std::to_string(client_.network().simulation().now().nanos())];
  for (auto& [name, value] : buffer_) {
    at[name] = std::move(value);
  }
  buffer_.clear();
  client_.publish(app_id_, std::move(record));
  ++commits_;
  return true;
}

}  // namespace soma::core
