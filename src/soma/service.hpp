// The SOMA service (paper §2.2.1).
//
// A SomaService owns N service ranks, each an RPC engine pinned to a core of
// a service node. The ranks are partitioned among the four namespace
// instances. Clients publish datamodel Nodes to the rank of the appropriate
// instance that their source hashes to; the rank ingests serially
// (queueing under load), stores the record in its own shard, and
// acknowledges. A record whose source hashes to another rank is refused
// with LookupError, like a malformed body.
//
// The service also exposes a "query" RPC through which online consumers (the
// adaptive advisor of §4.3, dashboards) read analysis results back out.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "net/rpc.hpp"
#include "soma/namespaces.hpp"
#include "soma/replication.hpp"
#include "soma/store.hpp"

namespace soma::core {

struct ServiceConfig {
  /// Service ranks per namespace instance (paper Table 1/2: "SOMA Ranks Per
  /// Namespace").
  int ranks_per_namespace = 1;
  /// Namespaces to instantiate (experiments use workflow+hardware[+perf]).
  std::vector<Namespace> namespaces = {Namespace::kWorkflow,
                                       Namespace::kHardware,
                                       Namespace::kPerformance,
                                       Namespace::kApplication};
  /// Ingest cost model per rank.
  net::ServiceCost cost{};
  /// Port base for the rank engines.
  int base_port = 9000;
  /// Storage backend. The store has one shard per rank of each namespace
  /// instance, so each rank owns the shard its publishes land in.
  StorageConfig storage{};
  /// Shard replication + crash recovery (soma/replication.hpp). The default
  /// factor of 1 constructs nothing — the unreplicated service, byte for
  /// byte.
  ReplicationConfig replication{};
};

/// One namespace instance: the addresses of its ranks.
struct InstanceInfo {
  Namespace ns;
  std::vector<net::Address> ranks;
};

/// A server-side analysis routine: runs *inside* the service against the
/// data it already holds ("in situ processing for runtime decision
/// actuation", paper §6) and returns its result as a Node. Analyzers read
/// through the StoreView, never a concrete store or shard.
using Analyzer = std::function<datamodel::Node(const StoreView&)>;

class SomaService {
 public:
  /// Bring up the service ranks on `nodes`, assigned round-robin. The nodes
  /// are those granted to the SOMA service task by the RP scheduler.
  SomaService(net::Network& network, std::vector<NodeId> nodes,
              ServiceConfig config = {});

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] int total_ranks() const {
    return static_cast<int>(engines_.size());
  }

  /// Instance metadata published to clients (paper: service tasks make
  /// their RPC addresses known within the workflow).
  [[nodiscard]] const std::vector<InstanceInfo>& instances() const {
    return instances_;
  }
  [[nodiscard]] const InstanceInfo& instance(Namespace ns) const;

  /// The ingested data (read by the in-situ analysis).
  [[nodiscard]] const DataStore& store() const { return store_; }
  [[nodiscard]] DataStore& store() { return store_; }
  /// Read view over the sharded store.
  [[nodiscard]] StoreView store_view() const { return store_.view(); }

  /// Register a named in-situ analyzer, callable remotely via the query RPC
  /// {"kind":"analyze","analyzer":<name>}. Throws ConfigError on duplicates.
  void register_analyzer(const std::string& name, Analyzer analyzer);

  // ---- service-side accounting ----
  [[nodiscard]] std::uint64_t publishes_received() const {
    return publishes_received_;
  }
  /// Publishes that arrived via a client's buffer-and-replay path (they
  /// carried an original-publish timestamp).
  [[nodiscard]] std::uint64_t replayed_publishes() const {
    return replayed_publishes_;
  }
  /// Batch frames absorbed via soma.publish_batch (their records are also
  /// counted in publishes_received).
  [[nodiscard]] std::uint64_t batches_received() const {
    return batches_received_;
  }
  /// Aggregate engine stats over all ranks of one namespace instance.
  [[nodiscard]] net::EngineStats instance_stats(Namespace ns) const;
  /// Max queueing delay seen by any rank (the saturation signal).
  [[nodiscard]] Duration max_queue_delay() const;

  /// The replication + recovery engine, or nullptr when replication is off.
  [[nodiscard]] const ReplicationManager* replication() const {
    return replication_.get();
  }
  [[nodiscard]] ReplicationManager* replication() {
    return replication_.get();
  }

 private:
  /// `shard_index` is the rank's index within its namespace instance; the
  /// rank appends into that shard of the store.
  void define_rpcs(net::Engine& engine, int shard_index);

  net::Network& network_;
  ServiceConfig config_;
  DataStore store_;
  std::vector<std::unique_ptr<net::Engine>> engines_;
  /// Declared after engines_ so it is destroyed first (it borrows them).
  std::unique_ptr<ReplicationManager> replication_;
  std::vector<InstanceInfo> instances_;
  std::map<std::string, Analyzer> analyzers_;
  std::uint64_t publishes_received_ = 0;
  std::uint64_t replayed_publishes_ = 0;
  std::uint64_t batches_received_ = 0;
};

}  // namespace soma::core
