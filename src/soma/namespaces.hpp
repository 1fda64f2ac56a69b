// SOMA logical namespaces (paper §2.3.2).
//
// Monitoring data is divided into four namespaces — workflow, hardware,
// performance, and application — each served by an independent set of SOMA
// service ranks ("instances") so that one noisy source cannot starve the
// others. The top-level Conduit tag of each namespace matches the paper's
// listings: RP, PROC, TAU, APP.
#pragma once

#include <array>
#include <optional>
#include <string_view>

namespace soma::core {

enum class Namespace {
  kWorkflow = 0,     ///< RP task state transitions (Listing 1)
  kHardware = 1,     ///< /proc hardware metrics (Listing 2)
  kPerformance = 2,  ///< TAU profiles
  kApplication = 3,  ///< app-reported figures of merit
};

inline constexpr std::array<Namespace, 4> kAllNamespaces = {
    Namespace::kWorkflow, Namespace::kHardware, Namespace::kPerformance,
    Namespace::kApplication};

/// Human name: "workflow", "hardware", ...
[[nodiscard]] std::string_view to_string(Namespace ns);

/// Top-level Conduit tag: "RP", "PROC", "TAU", "APP".
[[nodiscard]] std::string_view namespace_tag(Namespace ns);

/// The namespace named by either form, or nullopt.
[[nodiscard]] std::optional<Namespace> find_namespace(std::string_view text);

/// Parse a namespace of configuration input from either form. Throws
/// ConfigError on junk.
[[nodiscard]] Namespace parse_namespace(std::string_view text);

}  // namespace soma::core
