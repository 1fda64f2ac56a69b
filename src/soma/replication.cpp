#include "soma/replication.hpp"

#include <algorithm>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/fault.hpp"
#include "net/wire.hpp"

namespace soma::core {
namespace {

// Replication frame prefix, in front of a PR 4 batch body:
//   u8   kind (0 = replica append, 1 = resync into a recovering primary)
//   u32  home shard index within the namespace instance (little-endian)
//   u64  base sequence: cumulative record count before this window
constexpr std::uint8_t kFrameReplicate = 0;
constexpr std::uint8_t kFrameResync = 1;
constexpr std::size_t kPrefixBytes = 1 + 4 + 8;

// Failure detector: consecutive missed probes before a rank is suspected,
// and before it is declared dead (detection latency is
// O(kDeadAfter * heartbeat_period)).
constexpr int kSuspectAfter = 2;
constexpr int kDeadAfter = 3;
// Backoff policy for replication and resync frames.
constexpr net::RetryPolicy kReplicateRetry{3, Duration::milliseconds(50), 2.0,
                                           Duration::milliseconds(400)};

std::uint64_t ack_seq(std::span<const std::byte> response) {
  const datamodel::Node ack = datamodel::Node::unpack(response);
  if (const auto* seq = ack.find_child("seq")) {
    return static_cast<std::uint64_t>(seq->as_int64());
  }
  return 0;
}

}  // namespace

std::string_view to_string(RankHealth health) {
  switch (health) {
    case RankHealth::kLive: return "live";
    case RankHealth::kSuspected: return "suspected";
    case RankHealth::kDead: return "dead";
    case RankHealth::kRecovering: return "recovering";
  }
  return "unknown";
}

ReplicationManager::ReplicationManager(net::Network& network, DataStore& store,
                                       ReplicationConfig config)
    : network_(network), store_(store), config_(std::move(config)) {
  if (config_.factor < 2) {
    throw ConfigError("ReplicationManager needs factor >= 2");
  }
  if (config_.max_batch_records == 0) {
    throw ConfigError("replication max_batch_records must be > 0");
  }
}

ReplicationManager::~ReplicationManager() = default;

std::size_t ReplicationManager::rank_at(Namespace ns, int shard) const {
  const auto& instance = instances_[static_cast<std::size_t>(ns)];
  if (shard < 0 || static_cast<std::size_t>(shard) >= instance.size()) {
    throw LookupError("replication: no rank for shard " +
                      std::to_string(shard) + " of namespace " +
                      std::string(to_string(ns)));
  }
  return instance[static_cast<std::size_t>(shard)];
}

bool ReplicationManager::endpoint_down_now(const Rank& rank) const {
  const net::FaultInjector* faults = network_.faults();
  if (faults == nullptr) return false;
  return faults->endpoint_down(rank.engine->address(),
                               network_.simulation().now());
}

void ReplicationManager::add_rank(Namespace ns, int shard,
                                  net::Engine& engine) {
  if (started_) {
    throw ConfigError("replication: add_rank after start");
  }
  const std::size_t index = ranks_.size();
  auto& instance = instances_[static_cast<std::size_t>(ns)];
  if (static_cast<std::size_t>(shard) != instance.size()) {
    throw ConfigError("replication: ranks must be added in shard order");
  }
  instance.push_back(index);

  Rank rank;
  rank.ns = ns;
  rank.shard = shard;
  rank.engine = &engine;
  ranks_.push_back(std::move(rank));

  engine.define("soma.heartbeat", [](const net::Address& /*caller*/,
                                     const datamodel::Node& /*args*/) {
    datamodel::Node ack;
    ack["status"].set("ok");
    return ack;
  });

  engine.define_raw(
      "soma.replicate",
      [this, index](const net::Address& /*caller*/,
                    std::span<const std::byte> body) {
        return handle_replicate(index, body);
      });
}

void ReplicationManager::start() {
  if (started_) return;
  started_ = true;

  // Ring wiring: the replicas of shard s live on the next factor-1 shards of
  // its namespace instance; replica backends are pre-built so a replica that
  // never receives a record still reads back as a valid empty shard.
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    Rank& rank = ranks_[i];
    const auto& instance = instances_[static_cast<std::size_t>(rank.ns)];
    const int effective =
        std::min(config_.factor, static_cast<int>(instance.size()));
    for (int k = 1; k < effective; ++k) {
      const std::size_t peer =
          instance[(static_cast<std::size_t>(rank.shard) +
                    static_cast<std::size_t>(k)) %
                   instance.size()];
      PeerLink link;
      link.peer = peer;
      rank.links.push_back(link);
      ranks_[peer].replicas[i].backend = make_storage_backend(store_.config());
    }
  }

  // Heartbeat phases are staggered deterministically: one uniform per rank,
  // split from the replication seed in rank order, exactly like the fault
  // layer's per-link streams — same seed, bit-identical schedule.
  const Rng base(config_.seed);
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    Rank& rank = ranks_[i];
    const double phase = base.split(static_cast<std::uint64_t>(i)).uniform();
    rank.heartbeat = std::make_unique<sim::PeriodicTask>(
        network_.simulation(), config_.heartbeat_period,
        [this, i] { tick(i); });
    rank.heartbeat->start(config_.heartbeat_period * phase);
  }
}

void ReplicationManager::stop() {
  for (Rank& rank : ranks_) {
    if (rank.heartbeat != nullptr) rank.heartbeat->stop();
  }
}

void ReplicationManager::on_append(Namespace ns, int shard,
                                   const std::string& source, SimTime time,
                                   std::span<const std::byte> packed) {
  const std::size_t index = rank_at(ns, shard);
  Rank& rank = ranks_[index];
  rank.log.push_back(
      LogEntry{source, time, std::vector<std::byte>(packed.begin(),
                                                    packed.end())});
  for (std::size_t li = 0; li < rank.links.size(); ++li) {
    maybe_send(index, li);
  }
}

void ReplicationManager::maybe_send(std::size_t index,
                                    std::size_t link_index) {
  const Rank& rank = ranks_[index];
  const Window& window = rank.links[link_index].window;
  if (window.in_flight || window.acked >= rank.log.size()) return;
  ship(index, link_index);
}

void ReplicationManager::send_resync_chunk(std::size_t target_index) {
  const Resync* resync = ranks_[target_index].resync.get();
  if (resync == nullptr || resync->window.in_flight) return;
  if (resync->window.acked >= resync->entries.size()) {
    finish_recovery(target_index);
    return;
  }
  ship(target_index, kResyncLink);
}

void ReplicationManager::ship(std::size_t owner, std::size_t link) {
  Rank& rank = ranks_[owner];
  const bool resync = link == kResyncLink;
  Window& window = resync ? rank.resync->window : rank.links[link].window;
  const std::vector<LogEntry>& entries =
      resync ? rank.resync->entries : rank.log;
  net::Engine& from =
      resync ? *ranks_[rank.resync->source].engine : *rank.engine;
  const net::Engine& to =
      resync ? *rank.engine : *ranks_[rank.links[link].peer].engine;

  const std::size_t base = window.acked;
  const std::size_t end =
      std::min(entries.size(), base + config_.max_batch_records);
  net::wire::BatchBodyWriter writer{std::string(to_string(rank.ns))};
  for (std::size_t i = base; i < end; ++i) {
    const LogEntry& entry = entries[i];
    writer.add_packed(entry.source, entry.time.nanos(), entry.packed);
  }

  window.in_flight = true;
  ++stats_.frames_sent;
  const std::uint64_t epoch = rank.epoch;
  const std::size_t body_size = kPrefixBytes + writer.body_size();
  from.call_raw(
      to.id(), "soma.replicate", body_size,
      [kind = resync ? kFrameResync : kFrameReplicate, shard = rank.shard,
       base, writer = std::move(writer)](std::vector<std::byte>& frame) {
        const std::size_t at = frame.size();
        frame.resize(at + kPrefixBytes);
        std::byte* p = frame.data() + at;
        *p++ = static_cast<std::byte>(kind);
        p = bytes::store_u32(p, static_cast<std::uint32_t>(shard));
        bytes::store_u64(p, base);
        writer.encode(frame);
      },
      [this, owner, link, epoch, base](net::Engine::Result result) {
        // Stale once the owner's epoch moved on or its resync is gone.
        Rank& o = ranks_[owner];
        if (o.epoch != epoch) return;
        const bool resync = link == kResyncLink;
        if (resync && o.resync == nullptr) return;
        Window& w = resync ? o.resync->window : o.links[link].window;
        w.in_flight = false;
        if (!result.ok) {
          w.stalled = true;  // re-kicked by the owner's next live tick
          return;
        }
        // The receiver's cumulative ack is authoritative: a holder that lost
        // its replica (crash) acks low and the window rewinds to re-ship.
        const auto acked = static_cast<std::size_t>(ack_seq(result.body));
        if (resync) {
          w.acked = std::min(acked, o.resync->entries.size());
          send_resync_chunk(owner);
          return;
        }
        w.acked = std::min(acked, o.log.size());
        if (w.acked > base) stats_.records_replicated += w.acked - base;
        maybe_send(owner, link);
      },
      kReplicateRetry);
}

datamodel::Node ReplicationManager::handle_replicate(
    std::size_t holder_index, std::span<const std::byte> body) {
  std::size_t offset = 0;
  bytes::ByteReader prefix(body, offset, "soma.replicate");
  const std::uint8_t kind = prefix.u8();
  const int home_shard = static_cast<int>(prefix.u32());
  const std::uint64_t base_seq = prefix.u64();
  const net::wire::BatchView batch =
      net::wire::decode_batch_body(body.subspan(offset));

  Rank& holder = ranks_[holder_index];
  // Frames travel only within one namespace instance.
  const Namespace ns = holder.ns;
  if (batch.ns != to_string(ns)) {
    throw LookupError("replication: frame names another namespace");
  }
  // Sink per kind: a replica append lands in the holder's replica of the
  // home shard; a resync chunk lands at the recovering primary itself, in
  // its shard AND its replication log, so its own replicas heal by the
  // ordinary shipping path.
  StorageBackend* replica = nullptr;
  std::uint64_t* applied = &holder.resync_applied;
  if (kind == kFrameReplicate) {
    const std::size_t home = rank_at(ns, home_shard);
    const auto it = holder.replicas.find(home);
    if (it == holder.replicas.end()) {
      throw LookupError("replication: rank holds no replica of shard " +
                        std::to_string(home_shard));
    }
    replica = it->second.backend.get();
    applied = &it->second.applied;
  } else if (kind != kFrameResync) {
    throw LookupError("unknown replication frame");
  }

  // Apply only contiguous, unseen records: a retried window re-sends from
  // its original base (skip the overlap), and a pre-crash frame arriving
  // after the receiver was wiped has base > 0 == applied (skip entirely; the
  // low ack rewinds the sender).
  if (base_seq <= *applied) {
    for (std::size_t i = *applied - base_seq; i < batch.records.size(); ++i) {
      const net::wire::BatchRecordView& record = batch.records[i];
      const std::string source(record.source);
      const SimTime time{record.t_nanos};
      if (replica != nullptr) {
        replica->append(source, time, datamodel::Node::unpack(record.payload),
                        record.payload.size());
      } else {
        apply_resync_record(holder, source, time, record.payload);
        ++stats_.resync_records;
      }
    }
    *applied = std::max(*applied, base_seq + batch.records.size());
  }
  datamodel::Node ack;
  ack["status"].set("ok");
  ack["seq"].set(static_cast<std::int64_t>(*applied));
  return ack;
}

void ReplicationManager::apply_resync_record(
    Rank& rank, const std::string& source, SimTime time,
    std::span<const std::byte> packed) {
  const std::size_t index = rank_at(rank.ns, rank.shard);
  store_.shard(rank.ns, rank.shard)
      .append(source, time, datamodel::Node::unpack(packed), packed.size());
  rank.log.push_back(LogEntry{
      source, time, std::vector<std::byte>(packed.begin(), packed.end())});
  for (std::size_t li = 0; li < rank.links.size(); ++li) {
    maybe_send(index, li);
  }
}

void ReplicationManager::tick(std::size_t index) {
  Rank& rank = ranks_[index];
  // Self-poll the fault injector: the down transition is the crash (memory
  // wiped), the up transition is the restart (anti-entropy resync). A dead
  // process acts on nothing, so the tick ends there while down.
  const bool down_now = endpoint_down_now(rank);
  if (down_now && !rank.down) {
    rank.down = true;
    wipe(index);
  } else if (!down_now && rank.down) {
    rank.down = false;
    begin_recovery(index);
  }
  if (rank.down) return;

  send_heartbeats(index);

  // Re-kick stalled replication windows and a stalled resync stream. The
  // frames themselves retry with backoff; this outer retry covers windows
  // that exhausted their budget while a peer was down.
  for (std::size_t li = 0; li < rank.links.size(); ++li) {
    Window& window = rank.links[li].window;
    if (window.stalled && !window.in_flight) {
      window.stalled = false;
      maybe_send(index, li);
    }
  }
  if (rank.resync != nullptr && rank.resync->window.stalled &&
      !rank.resync->window.in_flight) {
    rank.resync->window.stalled = false;
    send_resync_chunk(index);
  }
}

void ReplicationManager::send_heartbeats(std::size_t index) {
  Rank& rank = ranks_[index];
  const std::uint64_t epoch = rank.epoch;
  for (const PeerLink& link : rank.links) {
    const std::size_t target = link.peer;
    ++stats_.heartbeats_sent;
    net::RetryPolicy policy;
    policy.max_attempts = 1;
    policy.timeout = config_.heartbeat_timeout;
    datamodel::Node probe;
    probe["from"].set(static_cast<std::int64_t>(rank.shard));
    rank.engine->call(
        ranks_[target].engine->id(), "soma.heartbeat", std::move(probe),
        [this, index, target, epoch](net::Engine::Result result) {
          // Epoch staleness covers crash-then-restart races, and a dead
          // observer's misses do not count (it could not have sent the
          // probe).
          const Rank& observer = ranks_[index];
          if (observer.epoch != epoch) return;
          if (result.ok) {
            record_heartbeat_ack(target);
          } else if (!observer.down) {
            record_missed_heartbeat(target);
          }
        },
        policy);
  }
}

void ReplicationManager::record_heartbeat_ack(std::size_t target_index) {
  Rank& target = ranks_[target_index];
  target.missed_heartbeats = 0;
  if (target.health != RankHealth::kLive && !target.wiped) {
    target.health = RankHealth::kLive;
    update_instance_read_routes(target.ns);
  }
}

void ReplicationManager::record_missed_heartbeat(std::size_t target_index) {
  Rank& target = ranks_[target_index];
  ++target.missed_heartbeats;
  ++stats_.heartbeats_missed;
  if (target.missed_heartbeats >= kDeadAfter &&
      target.health != RankHealth::kDead &&
      target.health != RankHealth::kRecovering) {
    target.health = RankHealth::kDead;
    ++stats_.dead_transitions;
    update_instance_read_routes(target.ns);
  } else if (target.missed_heartbeats >= kSuspectAfter &&
             target.health == RankHealth::kLive) {
    target.health = RankHealth::kSuspected;
    ++stats_.suspected_transitions;
  }
}

void ReplicationManager::wipe(std::size_t index) {
  Rank& rank = ranks_[index];
  ++stats_.crash_wipes;
  ++rank.epoch;  // invalidate every in-flight callback of the old process
  rank.wiped = true;
  rank.resync.reset();
  rank.resync_applied = 0;
  store_.shard(rank.ns, rank.shard).clear();
  rank.log.clear();
  for (PeerLink& link : rank.links) link.window = Window{};
  for (auto& [home, replica] : rank.replicas) {
    replica.backend->clear();
    replica.applied = 0;
  }
  update_instance_read_routes(rank.ns);
}

void ReplicationManager::begin_recovery(std::size_t index) {
  Rank& rank = ranks_[index];
  ++stats_.recoveries_started;
  ++rank.epoch;
  rank.health = RankHealth::kRecovering;
  rank.missed_heartbeats = 0;
  rank.resync_applied = 0;

  // Snapshot the freshest live replica of this shard BEFORE resetting the
  // holders: each record packed once, streamed back in chunks below. Ties
  // resolve to the nearest successor (deterministic).
  const std::size_t best_holder = freshest_holder(index);
  std::vector<LogEntry> snapshot;
  if (best_holder != ranks_.size()) {
    const StorageBackend& replica =
        *ranks_[best_holder].replicas.at(index).backend;
    for (const std::string& source : replica.sources()) {
      for (const TimedRecord* record : replica.series(source)) {
        snapshot.push_back(
            LogEntry{source, record->time, record->data.pack()});
      }
    }
  }

  // The rebuilt log restarts at sequence zero, so every holder's replica of
  // this shard restarts too (backend cleared, cumulative ack rewound) —
  // resync'd records re-replicate through the ordinary path.
  for (PeerLink& link : rank.links) {
    Rank& holder = ranks_[link.peer];
    if (auto replica = holder.replicas.find(index);
        replica != holder.replicas.end()) {
      replica->second.backend->clear();
      replica->second.applied = 0;
    }
    link.window = Window{};
  }

  // The replicas this rank held for other primaries were lost in the wipe;
  // rewinding each primary's link re-ships its full log here.
  for (std::size_t p = 0; p < ranks_.size(); ++p) {
    Rank& primary = ranks_[p];
    for (std::size_t li = 0; li < primary.links.size(); ++li) {
      PeerLink& link = primary.links[li];
      if (link.peer != index) continue;
      link.window.acked = 0;
      link.window.stalled = false;
      if (!primary.down && !primary.wiped) maybe_send(p, li);
    }
  }

  update_instance_read_routes(rank.ns);

  if (snapshot.empty()) {
    // No live replica to restore from (or it was empty): rejoin empty. Any
    // replica-held records are unrecoverable until a holder comes back.
    finish_recovery(index);
    return;
  }
  auto resync = std::make_unique<Resync>();
  resync->source = best_holder;
  resync->entries = std::move(snapshot);
  rank.resync = std::move(resync);
  send_resync_chunk(index);
}

void ReplicationManager::finish_recovery(std::size_t index) {
  Rank& rank = ranks_[index];
  rank.resync.reset();
  rank.wiped = false;
  rank.health = RankHealth::kLive;
  rank.missed_heartbeats = 0;
  ++stats_.recoveries_completed;
  update_instance_read_routes(rank.ns);
}

void ReplicationManager::update_read_route(std::size_t index) {
  Rank& rank = ranks_[index];
  if (!rank.wiped && rank.health != RankHealth::kDead) {
    store_.clear_read_override(rank.ns, rank.shard);
    return;
  }
  const std::size_t holder = freshest_holder(index);
  if (holder != ranks_.size()) {
    store_.set_read_override(rank.ns, rank.shard,
                             ranks_[holder].replicas.at(index).backend.get());
  } else {
    store_.clear_read_override(rank.ns, rank.shard);
  }
}

std::size_t ReplicationManager::freshest_holder(std::size_t index) const {
  std::size_t best = ranks_.size();
  std::uint64_t best_seq = 0;
  for (const PeerLink& link : ranks_[index].links) {
    const Rank& holder = ranks_[link.peer];
    if (holder.wiped || endpoint_down_now(holder)) continue;
    const auto replica = holder.replicas.find(index);
    const std::uint64_t applied =
        replica == holder.replicas.end() ? 0 : replica->second.applied;
    if (best == ranks_.size() || applied > best_seq) {
      best = link.peer;
      best_seq = applied;
    }
  }
  return best;
}

void ReplicationManager::update_instance_read_routes(Namespace ns) {
  // Any transition can invalidate a sibling's route (e.g. the holder a dead
  // rank reads through crashes too), so recompute the whole instance.
  for (const std::size_t index : instances_[static_cast<std::size_t>(ns)]) {
    update_read_route(index);
  }
}

RankHealth ReplicationManager::health(Namespace ns, int shard) const {
  return ranks_[rank_at(ns, shard)].health;
}

std::uint64_t ReplicationManager::replica_lag(Namespace ns, int shard) const {
  const Rank& rank = ranks_[rank_at(ns, shard)];
  if (rank.links.empty()) return 0;
  std::size_t min_acked = rank.log.size();
  for (const PeerLink& link : rank.links) {
    min_acked = std::min(min_acked, link.window.acked);
  }
  return rank.log.size() - min_acked;
}

std::vector<ReplicationShardStatus> ReplicationManager::shard_status() const {
  std::vector<ReplicationShardStatus> rows;
  for (const auto& instance : instances_) {
    for (const std::size_t index : instance) {
      const Rank& rank = ranks_[index];
      ReplicationShardStatus row;
      row.ns = rank.ns;
      row.shard = rank.shard;
      row.health = rank.health;
      row.log_records = rank.log.size();
      row.replica_lag_records = replica_lag(rank.ns, rank.shard);
      rows.push_back(row);
    }
  }
  return rows;
}

const StorageBackend* ReplicationManager::replica(Namespace ns, int home_shard,
                                                  int holder_shard) const {
  const std::size_t home = rank_at(ns, home_shard);
  const Rank& holder = ranks_[rank_at(ns, holder_shard)];
  const auto it = holder.replicas.find(home);
  return it == holder.replicas.end() ? nullptr : it->second.backend.get();
}

std::span<const std::byte> ReplicationManager::logged_record(
    Namespace ns, int shard, std::size_t index) const {
  return ranks_[rank_at(ns, shard)].log.at(index).packed;
}

}  // namespace soma::core
