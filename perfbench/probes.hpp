// Per-layer probes: replay a finished run's stored records through single
// layers (datamodel, wire, storage backends, analysis) and time each public
// call from outside, plus an isolated event-queue measurement.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "soma/namespaces.hpp"
#include "soma/store.hpp"

namespace perfbench {

/// Every record of `namespaces` in the view, ordered by ingest time (ties:
/// namespace, then source order), the order a service absorbed them in.
struct StoredRecord {
  soma::core::Namespace ns;
  const std::string* source;
  const soma::core::TimedRecord* record;
};

class RecordSet {
 public:
  RecordSet(const soma::core::StoreView& view,
            const std::vector<soma::core::Namespace>& namespaces);
  [[nodiscard]] const std::vector<StoredRecord>& records() const {
    return records_;
  }

 private:
  std::vector<std::vector<std::string>> sources_;  // stable storage
  std::vector<StoredRecord> records_;
};

/// datamodel.*: pack, unpack, copy, destroy, find_child (host ->
/// cpu_utilization), bytes per record.
void replay_datamodel(const RecordSet& records, std::vector<Metric>& out);

/// net.wire_*: batch-encode, header-decode and batch-decode the records in
/// windows of 16.
void replay_wire(const RecordSet& records, std::vector<Metric>& out);

/// soma.store.{map,log}.*: the records appended (singly and in batches of
/// 16) into fresh backends of each kind, `shards` per namespace, then read
/// back with latest / range (last 10 s) / sources.
void replay_storage(const RecordSet& records, int shards,
                    std::vector<Metric>& out);

/// analysis.*: analyze_hardware and detect_host_anomalies over the view.
void replay_analysis(const soma::core::StoreView& view,
                     std::vector<Metric>& out);

/// sim.dispatch_ns: schedule-and-dispatch of no-op events with `depth`
/// events pending, in a fresh Simulation.
double sim_dispatch_ns(std::size_t depth);

}  // namespace perfbench
