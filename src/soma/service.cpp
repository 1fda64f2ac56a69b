#include "soma/service.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "net/wire.hpp"
#include "soma/export.hpp"

namespace soma::core {
namespace {

/// Refuse a record that reached a rank other than its source's home rank,
/// before anything is counted, stored or logged.
void check_home_shard(const DataStore& store, std::string_view source,
                      int shard_index) {
  if (store.shard_index_for(source) == shard_index) return;
  std::string message = "source '";
  message += source;
  message += "' does not hash to rank ";
  message += std::to_string(shard_index);
  throw LookupError(message);
}

/// The namespace a publish, batch or query body names. An unknown one is
/// malformed wire input: a LookupError, like every other decode failure.
Namespace body_namespace(std::string_view text) {
  if (const auto ns = find_namespace(text)) return *ns;
  std::string message = "unknown SOMA namespace in body: ";
  message += text;
  throw LookupError(message);
}

}  // namespace

SomaService::SomaService(net::Network& network, std::vector<NodeId> nodes,
                         ServiceConfig config)
    : network_(network),
      config_(std::move(config)),
      store_(config_.storage, config_.ranks_per_namespace) {
  // The store throws ConfigError for ranks_per_namespace < 1.
  if (nodes.empty()) throw ConfigError("SOMA service needs at least one node");
  if (config_.namespaces.empty()) {
    throw ConfigError("SOMA service needs >= 1 namespace");
  }
  if (config_.replication.enabled()) {
    replication_ = std::make_unique<ReplicationManager>(
        network_, store_, config_.replication);
  }

  // Create the rank engines, spreading ranks round-robin across the service
  // nodes, and partition them into namespace instances.
  int rank_index = 0;
  for (Namespace ns : config_.namespaces) {
    InstanceInfo info;
    info.ns = ns;
    for (int r = 0; r < config_.ranks_per_namespace; ++r, ++rank_index) {
      const NodeId node = nodes[static_cast<std::size_t>(rank_index) %
                                nodes.size()];
      net::Address address =
          net::make_address(node, config_.base_port + rank_index);
      auto engine =
          std::make_unique<net::Engine>(network_, address, config_.cost);
      define_rpcs(*engine, r);
      if (replication_ != nullptr) replication_->add_rank(ns, r, *engine);
      info.ranks.push_back(std::move(address));
      engines_.push_back(std::move(engine));
    }
    instances_.push_back(std::move(info));
  }
  if (replication_ != nullptr) replication_->start();
}

const InstanceInfo& SomaService::instance(Namespace ns) const {
  for (const auto& info : instances_) {
    if (info.ns == ns) return info;
  }
  throw ConfigError("SOMA service has no instance for namespace " +
                    std::string(to_string(ns)));
}

void SomaService::define_rpcs(net::Engine& engine, int shard_index) {
  // Single-record publishes: the envelope is read in place off the frame
  // body and only the record is decoded; the store counts, and the
  // replication log keeps, the record's bytes as they arrived.
  engine.define_raw(
      "soma.publish",
      [this, shard_index](const net::Address& /*caller*/,
                          std::span<const std::byte> body) {
        net::wire::PublishBodyView publish =
            net::wire::decode_publish_body(body);
        const Namespace ns = body_namespace(publish.ns);
        check_home_shard(store_, publish.source, shard_index);
        ++publishes_received_;
        // Replayed publishes (buffered by a client while this rank was
        // down) carry their original publish time in "t"; honor it so the
        // stored series reflects when the data was produced, not when it
        // finally arrived. Live publishes keep the ingest-time stamp.
        SimTime stamp = network_.simulation().now();
        if (publish.t) {
          stamp = SimTime{*publish.t};
          ++replayed_publishes_;
        }
        // The receiving rank is the source's home rank, and ingests into
        // its own shard.
        const std::string source(publish.source);
        if (replication_ != nullptr) {
          replication_->on_append(ns, shard_index, source, stamp,
                                  publish.data_bytes);
        }
        store_.shard(ns, shard_index)
            .append(source, stamp, std::move(publish.data),
                    publish.data_bytes.size());

        datamodel::Node ack;
        ack["status"].set("ok");
        return ack;
      });

  // Batched publishes: one frame carries N records, decoded straight off the
  // frame body (no envelope Node). Records keep the client-side publish
  // timestamps packed into the frame, so a batched series stores the same
  // per-tick stamps a record-at-a-time client would have produced.
  engine.define_raw(
      "soma.publish_batch",
      [this, shard_index](const net::Address& /*caller*/,
                          std::span<const std::byte> body) {
        const net::wire::BatchView batch = net::wire::decode_batch_body(body);
        const Namespace ns = body_namespace(batch.ns);
        for (const net::wire::BatchRecordView& record : batch.records) {
          check_home_shard(store_, record.source, shard_index);
        }
        ++batches_received_;
        publishes_received_ += batch.records.size();
        std::vector<BatchItem> items;
        items.reserve(batch.records.size());
        for (const net::wire::BatchRecordView& record : batch.records) {
          items.push_back(BatchItem{std::string(record.source),
                                    SimTime{record.t_nanos},
                                    datamodel::Node::unpack(record.payload)});
        }
        if (replication_ != nullptr) {
          for (std::size_t i = 0; i < items.size(); ++i) {
            replication_->on_append(ns, shard_index, items[i].source,
                                    items[i].time, batch.records[i].payload);
          }
        }
        store_.shard(ns, shard_index).append_batch(std::move(items));

        datamodel::Node ack;
        ack["status"].set("ok");
        return ack;
      });

  // Liveness probe used by degraded clients to detect collector recovery.
  engine.define("soma.ping", [](const net::Address& /*caller*/,
                                const datamodel::Node& /*args*/) {
    datamodel::Node ack;
    ack["status"].set("ok");
    return ack;
  });

  engine.define("soma.query", [this](const net::Address& /*caller*/,
                                     const datamodel::Node& args) {
    datamodel::Node reply;
    const StoreView view = store_.view();
    const std::string_view kind = args.fetch_existing("kind").as_string();
    if (kind == "latest") {
      const Namespace ns =
          body_namespace(args.fetch_existing("ns").as_string());
      const std::string source(args.fetch_existing("source").as_string());
      if (const TimedRecord* record = view.latest(ns, source)) {
        reply["time"].set(record->time.nanos());
        reply["data"] = record->data;
      } else {
        reply["error"].set("no records for source: " + source);
      }
    } else if (kind == "sources") {
      const Namespace ns =
          body_namespace(args.fetch_existing("ns").as_string());
      datamodel::Node& list = reply["sources"];
      for (const std::string& source : view.sources(ns)) {
        list[source].set(
            static_cast<std::int64_t>(view.series(ns, source).size()));
      }
    } else if (kind == "stats") {
      for (Namespace ns : config_.namespaces) {
        datamodel::Node& entry = reply[std::string(to_string(ns))];
        entry["records"].set(
            static_cast<std::int64_t>(view.record_count(ns)));
        entry["bytes"].set(
            static_cast<std::int64_t>(view.ingested_bytes(ns)));
      }
    } else if (kind == "shards") {
      reply = export_shard_report(store_, replication_.get());
    } else if (kind == "analyze") {
      // In-situ analysis: run a registered analyzer against the store and
      // return the result — the data never leaves the service.
      const std::string name(args.fetch_existing("analyzer").as_string());
      const auto it = analyzers_.find(name);
      if (it == analyzers_.end()) {
        reply["error"].set("unknown analyzer: " + name);
      } else {
        reply["result"] = it->second(view);
      }
    } else {
      std::string error = "unknown query kind: ";
      error += kind;
      reply["error"].set(error);
    }
    return reply;
  });
}

void SomaService::register_analyzer(const std::string& name,
                                    Analyzer analyzer) {
  if (!analyzer) throw ConfigError("analyzer must be callable");
  const auto [it, inserted] = analyzers_.emplace(name, std::move(analyzer));
  (void)it;
  if (!inserted) throw ConfigError("analyzer already registered: " + name);
}

net::EngineStats SomaService::instance_stats(Namespace ns) const {
  // Engines are built namespace-major: instance i owns the i-th block of
  // ranks_per_namespace engines.
  const InstanceInfo& info = instance(ns);
  const auto first = static_cast<std::size_t>(&info - instances_.data()) *
                     info.ranks.size();
  net::EngineStats total;
  for (std::size_t r = 0; r < info.ranks.size(); ++r) {
    total += engines_[first + r]->stats();
  }
  return total;
}

Duration SomaService::max_queue_delay() const {
  Duration worst;
  for (const auto& engine : engines_) {
    worst = std::max(worst, engine->stats().max_queue_delay);
  }
  return worst;
}

}  // namespace soma::core
