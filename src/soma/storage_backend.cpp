#include "soma/storage_backend.hpp"

#include "common/error.hpp"
#include "soma/log_backend.hpp"
#include "soma/map_backend.hpp"

namespace soma::core {

std::string_view to_string(StorageBackendKind kind) {
  switch (kind) {
    case StorageBackendKind::kMap: return "map";
    case StorageBackendKind::kLog: return "log";
  }
  return "?";
}

StorageBackendKind parse_backend_kind(std::string_view text) {
  if (text == "map") return StorageBackendKind::kMap;
  if (text == "log") return StorageBackendKind::kLog;
  throw ConfigError("unknown storage backend: " + std::string(text) +
                    " (expected map|log)");
}

std::unique_ptr<StorageBackend> make_storage_backend(
    const StorageConfig& config) {
  switch (config.backend) {
    case StorageBackendKind::kMap: return std::make_unique<MapBackend>();
    case StorageBackendKind::kLog: return std::make_unique<LogBackend>();
  }
  throw ConfigError("unknown storage backend kind");
}

}  // namespace soma::core
