#include "soma/export.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/error.hpp"

namespace soma::core {

std::size_t export_store(const StoreView& view, std::ostream& out) {
  std::size_t lines = 0;
  for (Namespace ns : kAllNamespaces) {
    for (const std::string& source : view.sources(ns)) {
      for (const TimedRecord* record : view.series(ns, source)) {
        datamodel::Node line;
        line["ns"].set(std::string(to_string(ns)));
        line["source"].set(source);
        line["t"].set(record->time.nanos());
        line["data"] = record->data;
        out << line.to_json() << '\n';
        ++lines;
      }
    }
  }
  return lines;
}

std::size_t export_store_to_file(const StoreView& view,
                                 const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ConfigError("export_store: cannot open " + path);
  return export_store(view, out);
}

datamodel::Node export_shard_report(const DataStore& store,
                                    const ReplicationManager* replication) {
  datamodel::Node report;
  report["backend"].set(std::string(to_string(store.backend_kind())));
  report["shard_count"].set(static_cast<std::int64_t>(store.shard_count()));
  for (const ShardCounters& counters : store.shard_counters()) {
    datamodel::Node& entry =
        report[std::string(to_string(counters.ns))]
              ["shard_" + std::to_string(counters.shard)];
    entry["records"].set(static_cast<std::int64_t>(counters.records));
    entry["bytes"].set(static_cast<std::int64_t>(counters.bytes));
    entry["batches"].set(static_cast<std::int64_t>(counters.batches));
  }
  if (replication != nullptr) {
    for (const ReplicationShardStatus& row : replication->shard_status()) {
      datamodel::Node& entry = report[std::string(to_string(row.ns))]
                                     ["shard_" + std::to_string(row.shard)];
      entry["replica_lag_records"].set(
          static_cast<std::int64_t>(row.replica_lag_records));
      entry["health"].set(std::string(to_string(row.health)));
    }
    const ReplicationStats& stats = replication->stats();
    datamodel::Node& summary = report["replication"];
    summary["factor"].set(
        static_cast<std::int64_t>(replication->config().factor));
    summary["records_replicated"].set(
        static_cast<std::int64_t>(stats.records_replicated));
    summary["resync_records"].set(
        static_cast<std::int64_t>(stats.resync_records));
    summary["crash_wipes"].set(static_cast<std::int64_t>(stats.crash_wipes));
    summary["recoveries_completed"].set(
        static_cast<std::int64_t>(stats.recoveries_completed));
  }
  return report;
}

bool parse_export_line(const std::string& line, ExportedRecord& record) {
  if (line.empty()) return false;
  const datamodel::Node parsed = datamodel::Node::parse_json(line);
  const std::string_view ns = parsed.fetch_existing("ns").as_string();
  const std::optional<Namespace> known = find_namespace(ns);
  if (!known) {
    std::string message = "parse_export_line: unknown SOMA namespace: ";
    message += ns;
    throw LookupError(message);
  }
  record.ns = *known;
  record.source = parsed.fetch_existing("source").as_string();
  record.time = SimTime{parsed.fetch_existing("t").as_int64()};
  if (const auto* data = parsed.find_child("data")) {
    record.data = *data;
  } else {
    record.data.reset();
  }
  return true;
}

std::size_t import_store(DataStore& store, std::istream& in) {
  std::size_t loaded = 0;
  std::string line;
  while (std::getline(in, line)) {
    // A truncated final line (no closing brace) is tolerated: it is the
    // expected state of a file whose writer died mid-record.
    if (!in.eof() || (!line.empty() && line.back() == '}')) {
      ExportedRecord record;
      if (!parse_export_line(line, record)) continue;
      store.append(record.ns, record.source, record.time,
                   std::move(record.data));
      ++loaded;
    }
  }
  return loaded;
}

std::size_t import_store_from_file(DataStore& store,
                                   const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("import_store: cannot open " + path);
  return import_store(store, in);
}

}  // namespace soma::core
