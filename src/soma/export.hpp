// Store export / import.
//
// SOMA's in-memory store can be flushed to a JSON-lines file (one record per
// line: namespace, source, timestamp, payload) for post-mortem analysis or
// transfer to another tool, and loaded back. The format is line-oriented so
// it can be tailed/streamed and survives truncation of the final line.
#pragma once

#include <iosfwd>
#include <string>

#include "soma/replication.hpp"
#include "soma/store.hpp"

namespace soma::core {

/// Serialize every record visible through `view` to `out`, one JSON object
/// per line:
///   {"ns":"hardware","source":"cn0001","t":123456789,"data":{...}}
/// Records are written namespace-major, source-major, time-ascending, all
/// read through the view, so the same data produces the same file
/// regardless of shard count or backend.
/// Returns the number of lines written.
std::size_t export_store(const StoreView& view, std::ostream& out);

/// Convenience: export to a file path. Throws ConfigError when the file
/// cannot be opened.
std::size_t export_store_to_file(const StoreView& view,
                                 const std::string& path);

/// Parse one exported line back into (namespace, source, time, data).
/// Returns false on a blank line; throws LookupError on malformed input.
struct ExportedRecord {
  Namespace ns = Namespace::kWorkflow;
  std::string source;
  SimTime time;
  datamodel::Node data;
};
bool parse_export_line(const std::string& line, ExportedRecord& record);

/// Load an exported stream into a store (appending). Returns the number of
/// records loaded. Malformed lines throw LookupError; a truncated final
/// line is skipped silently.
std::size_t import_store(DataStore& store, std::istream& in);

std::size_t import_store_from_file(DataStore& store, const std::string& path);

/// Per-shard ingest counters of `store` as a Node: backend kind, shard
/// count, and records/bytes per (namespace, shard). When `replication` is
/// given (a replicated service's manager), each shard entry gains
/// `replica_lag_records` and `health`, plus a top-level "replication"
/// subtree of aggregate counters; the default nullptr keeps the report
/// identical to the unreplicated one.
datamodel::Node export_shard_report(
    const DataStore& store, const ReplicationManager* replication = nullptr);

}  // namespace soma::core
