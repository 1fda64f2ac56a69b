#include "probes.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "analysis/advisor.hpp"
#include "analysis/anomaly.hpp"
#include "common/rng.hpp"
#include "net/wire.hpp"
#include "sim/simulation.hpp"
#include "soma/storage_backend.hpp"

namespace perfbench {

using soma::Duration;
using soma::SimTime;
using soma::core::Namespace;
using soma::datamodel::Node;

namespace {

/// Records are copied into reusable chunks outside the timed regions, so a
/// timed append or destroy measures that call only.
constexpr std::size_t kChunk = 1024;
constexpr std::size_t kWindow = 16;

/// Keeps probe results observable so the timed calls are not elided.
std::uint64_t g_sink = 0;

double per_op(std::int64_t total_ns, std::uint64_t ops) {
  return ops == 0 ? 0.0
                  : static_cast<double>(total_ns) / static_cast<double>(ops);
}

std::string ns_tag(Namespace ns) { return std::string(soma::core::to_string(ns)); }

}  // namespace

RecordSet::RecordSet(const soma::core::StoreView& view,
                     const std::vector<Namespace>& namespaces) {
  for (Namespace ns : namespaces) {
    sources_.push_back(view.sources(ns));
    for (const std::string& source : sources_.back()) {
      for (const soma::core::TimedRecord* record : view.series(ns, source)) {
        records_.push_back(StoredRecord{ns, &source, record});
      }
    }
  }
  std::stable_sort(records_.begin(), records_.end(),
                   [](const StoredRecord& a, const StoredRecord& b) {
                     return a.record->time < b.record->time;
                   });
}

void replay_datamodel(const RecordSet& set, std::vector<Metric>& out) {
  const auto& records = set.records();
  OpStats pack, unpack, copy, destroy, find;
  std::uint64_t bytes = 0;
  std::vector<std::byte> buffer;
  std::vector<std::vector<std::byte>> packed;
  std::vector<Node> nodes;
  nodes.reserve(kChunk);
  for (std::size_t begin = 0; begin < records.size(); begin += kChunk) {
    const std::size_t end = std::min(records.size(), begin + kChunk);

    std::int64_t t = now_ns();
    for (std::size_t i = begin; i < end; ++i) {
      buffer.clear();
      records[i].record->data.pack(buffer);
      bytes += buffer.size();
    }
    pack.total_ns += now_ns() - t;
    pack.count += end - begin;

    packed.clear();
    for (std::size_t i = begin; i < end; ++i) {
      packed.push_back(records[i].record->data.pack());
    }
    t = now_ns();
    for (const auto& frame : packed) {
      nodes.push_back(Node::unpack(frame));
    }
    unpack.total_ns += now_ns() - t;
    unpack.count += end - begin;
    nodes.clear();

    t = now_ns();
    for (std::size_t i = begin; i < end; ++i) {
      nodes.push_back(records[i].record->data);
    }
    copy.total_ns += now_ns() - t;
    copy.count += end - begin;

    t = now_ns();
    nodes.clear();
    destroy.total_ns += now_ns() - t;
    destroy.count += end - begin;

    t = now_ns();
    for (std::size_t i = begin; i < end; ++i) {
      if (records[i].ns != Namespace::kHardware) continue;
      const Node* host = records[i].record->data.find_child(*records[i].source);
      const Node* util =
          host != nullptr ? host->find_child("cpu_utilization") : nullptr;
      g_sink += util != nullptr ? 1 : 0;
      ++find.count;
    }
    find.total_ns += now_ns() - t;
  }
  g_sink += bytes;
  out.push_back({"datamodel.records", static_cast<double>(records.size()),
                 "count"});
  out.push_back({"datamodel.packed_bytes_per_record",
                 records.empty() ? 0.0
                                 : static_cast<double>(bytes) /
                                       static_cast<double>(records.size()),
                 "B"});
  out.push_back({"datamodel.pack_ns", pack.mean_ns(), "ns"});
  out.push_back({"datamodel.unpack_ns", unpack.mean_ns(), "ns"});
  out.push_back({"datamodel.copy_ns", copy.mean_ns(), "ns"});
  out.push_back({"datamodel.destroy_ns", destroy.mean_ns(), "ns"});
  out.push_back({"datamodel.find_child_ns", find.mean_ns(), "ns"});
}

void replay_wire(const RecordSet& set, std::vector<Metric>& out) {
  namespace wire = soma::net::wire;
  const auto& records = set.records();
  // Windows of 16 records of one namespace, in ingest order.
  std::map<Namespace, std::vector<const StoredRecord*>> by_ns;
  for (const StoredRecord& r : records) by_ns[r.ns].push_back(&r);

  OpStats encode, header, decode;
  std::uint64_t id = 1;
  std::vector<std::byte> frame;
  for (const auto& [ns, list] : by_ns) {
    const std::string tag = ns_tag(ns);
    for (std::size_t begin = 0; begin < list.size(); begin += kWindow) {
      const std::size_t end = std::min(list.size(), begin + kWindow);
      frame.clear();
      std::int64_t t = now_ns();
      wire::BatchBodyWriter writer(tag);
      for (std::size_t i = begin; i < end; ++i) {
        writer.add(*list[i]->source, list[i]->record->time.nanos(),
                   list[i]->record->data);
      }
      wire::append_header(frame, wire::Kind::kRequest, id++,
                          "soma.publish_batch");
      writer.encode(frame);
      encode.total_ns += now_ns() - t;
      encode.count += end - begin;

      t = now_ns();
      const wire::FrameHeader decoded = wire::decode_header(frame);
      header.add(now_ns() - t);

      t = now_ns();
      const wire::BatchView view = wire::decode_batch_body(decoded.body);
      decode.total_ns += now_ns() - t;
      decode.count += end - begin;
      g_sink += view.records.size();
    }
  }
  out.push_back({"net.wire_batch_encode_ns", encode.mean_ns(), "ns"});
  out.push_back({"net.wire_decode_header_ns", header.mean_ns(), "ns"});
  out.push_back({"net.wire_batch_decode_ns", decode.mean_ns(), "ns"});
}

void replay_storage(const RecordSet& set, int shards,
                    std::vector<Metric>& out) {
  using soma::core::BatchItem;
  using soma::core::StorageBackend;
  using soma::core::StorageBackendKind;
  const auto& records = set.records();
  shards = std::max(shards, 1);
  const auto shard_of = [&](const StoredRecord& r) {
    return static_cast<int>(soma::core::route_source(
        *r.source, static_cast<std::size_t>(shards)));
  };

  for (StorageBackendKind kind :
       {StorageBackendKind::kMap, StorageBackendKind::kLog}) {
    const std::string prefix =
        "soma.store." + std::string(soma::core::to_string(kind)) + ".";
    soma::core::StorageConfig config;
    config.backend = kind;
    using Key = std::pair<Namespace, int>;
    std::map<Key, std::unique_ptr<StorageBackend>> backends;
    const auto backend = [&](const Key& key) -> StorageBackend& {
      auto& slot = backends[key];
      if (!slot) slot = soma::core::make_storage_backend(config);
      return *slot;
    };

    // Single appends, in ingest order.
    OpStats append;
    std::vector<Node> chunk;
    std::vector<StorageBackend*> targets;
    for (std::size_t begin = 0; begin < records.size(); begin += kChunk) {
      const std::size_t end = std::min(records.size(), begin + kChunk);
      chunk.clear();
      targets.clear();
      for (std::size_t i = begin; i < end; ++i) {
        chunk.push_back(records[i].record->data);
        targets.push_back(&backend({records[i].ns, shard_of(records[i])}));
      }
      const std::int64_t t = now_ns();
      for (std::size_t i = begin; i < end; ++i) {
        targets[i - begin]->append(*records[i].source, records[i].record->time,
                                   std::move(chunk[i - begin]));
      }
      append.total_ns += now_ns() - t;
      append.count += end - begin;
    }

    // Reads of the single-append backends: every (shard, source) key.
    OpStats latest, range, sources;
    std::vector<std::pair<const StorageBackend*, const std::string*>> keys;
    {
      std::map<std::pair<Key, std::string>, bool> seen;
      for (const StoredRecord& r : records) {
        const Key key{r.ns, shard_of(r)};
        if (seen.emplace(std::make_pair(key, *r.source), true).second) {
          keys.emplace_back(backends[key].get(), r.source);
        }
      }
    }
    // Repeat whole passes until each read has enough calls to time.
    while (latest.count < 20000 && !keys.empty()) {
      for (const auto& [backend_ptr, source] : keys) {
        const StorageBackend& b = *backend_ptr;
        const soma::core::TimedRecord* last =
            timed(latest, [&] { return b.latest(*source); });
        if (last == nullptr) continue;
        const SimTime to = last->time;
        const SimTime from = to - Duration::seconds(10.0);
        g_sink += timed(range, [&] { return b.range(*source, from, to); }).size();
      }
    }
    while (sources.count < 2000 && !backends.empty()) {
      for (const auto& [key, b] : backends) {
        g_sink += timed(sources, [&] { return b->sources(); }).size();
      }
    }
    backends.clear();

    // Batch appends: windows of 16 records bound for one shard.
    OpStats append_batch;
    std::map<Key, std::vector<const StoredRecord*>> by_shard;
    for (const StoredRecord& r : records) by_shard[{r.ns, shard_of(r)}].push_back(&r);
    for (const auto& [key, list] : by_shard) {
      StorageBackend& b = backend(key);
      for (std::size_t begin = 0; begin < list.size(); begin += kWindow) {
        const std::size_t end = std::min(list.size(), begin + kWindow);
        std::vector<BatchItem> items;
        items.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          items.push_back(BatchItem{*list[i]->source, list[i]->record->time,
                                    list[i]->record->data});
        }
        const std::int64_t t = now_ns();
        b.append_batch(std::move(items));
        append_batch.total_ns += now_ns() - t;
        append_batch.count += end - begin;
      }
    }
    backends.clear();

    out.push_back({prefix + "append_ns", append.mean_ns(), "ns"});
    out.push_back({prefix + "append_batch_ns", append_batch.mean_ns(), "ns"});
    out.push_back({prefix + "latest_ns", latest.mean_ns(), "ns"});
    out.push_back({prefix + "range_ns", range.mean_ns(), "ns"});
    out.push_back({prefix + "sources_ns", sources.mean_ns(), "ns"});
  }
}

void replay_analysis(const soma::core::StoreView& view,
                     std::vector<Metric>& out) {
  OpStats analyze, anomalies;
  soma::analysis::FreeResourceReport report;
  for (int i = 0; i < 5; ++i) {
    report = timed(analyze, [&] { return soma::analysis::analyze_hardware(view); });
  }
  while (anomalies.count < 200) {
    g_sink += timed(anomalies, [&] {
                return soma::analysis::detect_host_anomalies(report);
              }).size();
  }
  out.push_back({"analysis.analyze_hardware_ns", analyze.mean_ns(), "ns"});
  out.push_back(
      {"analysis.detect_host_anomalies_ns", anomalies.mean_ns(), "ns"});
}

double sim_dispatch_ns(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  const std::size_t steps = std::max<std::size_t>(200000, 4 * depth);

  // Hold model: every dispatched event schedules one successor at a random
  // delay, so the queue stays at `depth` while it is timed.
  struct Hold {
    soma::sim::Simulation simulation;
    std::vector<std::int64_t> delays;
    std::size_t next = 0;
    void fire() {
      const std::int64_t delay = delays[next++ % delays.size()];
      simulation.schedule(Duration::nanoseconds(delay), [this] { fire(); });
    }
  };
  auto hold = std::make_unique<Hold>();
  soma::Rng rng(0x5eed);
  hold->delays.resize(1 << 16);
  for (auto& d : hold->delays) {
    d = static_cast<std::int64_t>(rng.uniform(1.0, 1e9));
  }
  hold->simulation.reserve(depth + 1);
  for (std::size_t i = 0; i < depth; ++i) hold->fire();

  const std::int64_t t = now_ns();
  for (std::size_t i = 0; i < steps; ++i) hold->simulation.step();
  return per_op(now_ns() - t, steps);
}

}  // namespace perfbench
