#include "soma/namespaces.hpp"

#include "common/error.hpp"

namespace soma::core {

std::string_view to_string(Namespace ns) {
  switch (ns) {
    case Namespace::kWorkflow: return "workflow";
    case Namespace::kHardware: return "hardware";
    case Namespace::kPerformance: return "performance";
    case Namespace::kApplication: return "application";
  }
  return "?";
}

std::string_view namespace_tag(Namespace ns) {
  switch (ns) {
    case Namespace::kWorkflow: return "RP";
    case Namespace::kHardware: return "PROC";
    case Namespace::kPerformance: return "TAU";
    case Namespace::kApplication: return "APP";
  }
  return "?";
}

std::optional<Namespace> find_namespace(std::string_view text) {
  for (Namespace ns : kAllNamespaces) {
    if (text == to_string(ns) || text == namespace_tag(ns)) return ns;
  }
  return std::nullopt;
}

Namespace parse_namespace(std::string_view text) {
  if (const auto ns = find_namespace(text)) return *ns;
  throw ConfigError("unknown SOMA namespace: " + std::string(text));
}

}  // namespace soma::core
