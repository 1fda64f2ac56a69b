#include "soma/client.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "net/wire.hpp"
#include "soma/storage_backend.hpp"

namespace soma::core {

SomaClient::SomaClient(net::Network& network, NodeId node, int port,
                       Namespace ns,
                       const std::vector<net::Address>& instance_ranks,
                       ClientReliability reliability, BatchingConfig batching)
    : network_(network),
      ns_(ns),
      reliability_(reliability) {
  check(!instance_ranks.empty(), "SOMA client needs >= 1 service rank");
  // Resolved once: every publish addresses its rank by id.
  instance_ranks_.reserve(instance_ranks.size());
  for (const net::Address& rank : instance_ranks) {
    instance_ranks_.push_back(network_.resolve(rank));
  }
  // The client stub handles only tiny acks; give it a near-zero cost model.
  net::ServiceCost stub_cost;
  stub_cost.base = Duration::microseconds(1);
  stub_cost.per_kib = Duration::nanoseconds(100);
  engine_ = std::make_unique<net::Engine>(
      network_, net::make_address(node, port), stub_cost);

  rank_down_.assign(instance_ranks_.size(), 0);
  probe_in_flight_.assign(instance_ranks_.size(), 0);
  if (reliability_.degradation_enabled()) {
    probe_task_ = std::make_unique<sim::PeriodicTask>(
        network_.simulation(), reliability_.probe_period,
        [this] { probe_tick(); });
  }
  if (batching.enabled()) {
    batcher_ = std::make_unique<PublishBatcher>(
        network_.simulation(), std::string(to_string(ns_)),
        instance_ranks_.size(), batching,
        [this](std::size_t rank_index, PublishBatcher::Batch batch) {
          send_batch(rank_index, std::move(batch));
        });
  }
}

SomaClient::~SomaClient() = default;

std::size_t SomaClient::rank_index_for(const std::string& source) const {
  // Same stable hash the store uses for shard routing: with one shard per
  // rank, the rank a source publishes to owns the shard it hashes to.
  return route_source(source, instance_ranks_.size());
}

void SomaClient::set_rank_down(std::size_t rank_index, bool down) {
  if ((rank_down_[rank_index] != 0) == down) return;
  rank_down_[rank_index] = down ? 1 : 0;
  if (down) {
    ++ranks_down_;
  } else {
    --ranks_down_;
  }
}

void SomaClient::publish(const std::string& source, datamodel::Node data,
                         std::function<void()> on_ack) {
  publish_record(source, data, std::move(on_ack));
}

void SomaClient::publish_packed(const std::string& source,
                                std::span<const std::byte> data,
                                std::function<void()> on_ack) {
  publish_record(source, data, std::move(on_ack));
}

void SomaClient::publish_record(const std::string& source,
                                const net::wire::Record& data,
                                std::function<void()> on_ack) {
  ++stats_.published;
  const SimTime now = network_.simulation().now();
  if (reliability_.degradation_enabled()) {
    // Park the record if its collector is down — or if anything is already
    // parked: replay order must not let a fresh publish overtake a buffered
    // one from the same source.
    if (!buffer_.empty() || rank_down_[rank_index_for(source)]) {
      std::vector<std::byte> bytes;
      {
        datamodel::PackWriter out(bytes, data.packed_size());
        data.pack(out);
      }
      enqueue_buffered(Buffered{source, std::move(bytes), now,
                                std::move(on_ack)});
      return;
    }
  }
  if (batcher_) {
    // Coalesce: the record is written into its rank's open batch.
    batcher_->add(rank_index_for(source), source, data, now,
                  std::move(on_ack));
    return;
  }
  send_publish(source, data, now, std::move(on_ack), /*replay=*/false);
}

void SomaClient::flush_batches() {
  if (batcher_) batcher_->flush_all();
}

void SomaClient::send_publish(const std::string& source,
                              const net::wire::Record& data,
                              SimTime published_at,
                              std::function<void()> on_ack, bool replay,
                              bool from_batch) {
  const std::size_t idx = rank_index_for(source);

  // The body is the packed {ns, source, data[, t]} envelope, written
  // straight into the frame. Replayed records carry their original publish
  // time so the service stores them under the timestamp the data was
  // produced at.
  const std::string_view ns = to_string(ns_);
  std::optional<std::int64_t> t;
  if (replay) t = published_at.nanos();
  const auto encode = [&](std::vector<std::byte>& frame) {
    net::wire::encode_publish_body(frame, ns, source, data, t);
  };

  // The ack's body is never read. A failed record (only a client with a
  // retry policy has failures) is copied out of the request body the engine
  // kept for retransmission.
  const SimTime sent_at = network_.simulation().now();
  auto on_done = [this, idx, sent_at, published_at, from_batch,
                  on_ack = std::move(on_ack)](
                     net::Engine::Result result) mutable {
    if (result.ok) {
      record_acks(sent_at, 1);
      if (on_ack) on_ack();
      return;
    }
    const net::wire::PublishBodyView failed =
        net::wire::decode_publish_body(result.body);
    on_publish_failure(
        idx, Buffered{std::string(failed.source),
                      {failed.data_bytes.begin(), failed.data_bytes.end()},
                      published_at, std::move(on_ack), from_batch});
  };
  engine_->call_raw(
      instance_ranks_[idx], "soma.publish",
      net::wire::publish_body_size(ns, source, data.packed_size(), replay),
      encode, std::move(on_done), reliability_.retry);
}

void SomaClient::record_acks(SimTime sent_at, std::size_t count) {
  stats_.acked += count;
  const Duration latency = network_.simulation().now() - sent_at;
  stats_.total_ack_latency += latency * static_cast<double>(count);
  stats_.max_ack_latency = std::max(stats_.max_ack_latency, latency);
}

void SomaClient::send_batch(std::size_t rank_index,
                            PublishBatcher::Batch batch) {
  if (batch.on_acks.empty()) return;
  ++stats_.batches_sent;
  const auto encode = [&batch](std::vector<std::byte>& frame) {
    batch.body.encode(frame);
  };
  const SimTime sent_at = network_.simulation().now();
  auto on_done = [this, rank_index, sent_at,
                  on_acks = std::move(batch.on_acks)](
                     net::Engine::Result result) mutable {
    if (result.ok) {
      record_acks(sent_at, on_acks.size());
      for (const std::function<void()>& on_ack : on_acks) {
        if (on_ack) on_ack();
      }
      return;
    }
    // A failed batch degrades to the single-record reliability path: every
    // record, copied out of the body the engine kept, re-buffers (or is
    // counted failed) with its original publish timestamp, so replay is
    // indistinguishable from a failed record-at-a-time run.
    const net::wire::BatchView failed =
        net::wire::decode_batch_body(result.body);
    for (std::size_t i = 0; i < failed.records.size(); ++i) {
      const net::wire::BatchRecordView& record = failed.records[i];
      on_publish_failure(
          rank_index,
          Buffered{std::string(record.source),
                   {record.payload.begin(), record.payload.end()},
                   SimTime(record.t_nanos), std::move(on_acks[i]),
                   /*from_batch=*/true});
    }
  };
  engine_->call_raw(instance_ranks_[rank_index], "soma.publish_batch",
                    batch.body.body_size(), encode, std::move(on_done),
                    reliability_.retry);
}

void SomaClient::enqueue_buffered(Buffered record) {
  if (buffer_.size() >= reliability_.max_buffered) {
    if (buffer_.front().from_batch) {
      ++stats_.dropped_batch_records;
    } else {
      ++stats_.dropped_overflow;
    }
    buffer_.pop_front();
  }
  buffer_.push_back(std::move(record));
  ++stats_.buffered;
  ensure_probe_running();
}

void SomaClient::on_publish_failure(std::size_t rank_index,
                                    Buffered record) {
  ++stats_.publish_failures;
  // A retry-only client has no probe to bring a rank back up, so it marks
  // none down. enqueue_buffered starts the probe.
  if (!reliability_.degradation_enabled()) return;
  set_rank_down(rank_index, true);
  enqueue_buffered(std::move(record));
}

void SomaClient::flush_buffer() {
  if (buffer_.empty()) return;
  std::vector<Buffered> ready;
  for (auto it = buffer_.begin(); it != buffer_.end();) {
    if (rank_down_[rank_index_for(it->source)] == 0) {
      ready.push_back(std::move(*it));
      it = buffer_.erase(it);
    } else {
      ++it;
    }
  }
  // Replay in original publish order. Records re-buffered by a late failure
  // carry an earlier publish time than their enqueue position, so sort by
  // publish time rather than trusting queue order — the store's per-source
  // series must stay time-ascending. The sort is stable, so records with
  // equal times keep their (FIFO) enqueue order.
  std::stable_sort(ready.begin(), ready.end(),
                   [](const Buffered& a, const Buffered& b) {
                     return a.published_at < b.published_at;
                   });
  for (Buffered& record : ready) {
    ++stats_.replayed;
    send_publish(record.source, std::span<const std::byte>(record.data),
                 record.published_at,
                 std::move(record.on_ack), /*replay=*/true,
                 record.from_batch);
  }
}

void SomaClient::ensure_probe_running() {
  if (!probe_task_ || probe_task_->running()) return;
  probe_task_->start(reliability_.probe_period);
}

void SomaClient::probe_tick() {
  flush_buffer();  // opportunistic: replay anything whose rank is back up
  bool any_down = false;
  for (std::size_t i = 0; i < instance_ranks_.size(); ++i) {
    if (rank_down_[i] == 0) continue;
    any_down = true;
    if (probe_in_flight_[i] != 0) continue;
    probe_in_flight_[i] = 1;
    net::RetryPolicy probe;
    probe.max_attempts = 1;
    probe.timeout = reliability_.retry.timeout;
    engine_->call(
        instance_ranks_[i], "soma.ping", datamodel::Node{},
        [this, i](net::Engine::Result result) {
          probe_in_flight_[i] = 0;
          if (!result.ok) return;  // still down: the next tick probes again
          set_rank_down(i, false);
          flush_buffer();
        },
        probe);
  }
  if (!any_down && buffer_.empty()) probe_task_->stop();
}

void SomaClient::query(datamodel::Node request,
                       std::function<void(datamodel::Node)> on_reply) {
  check(on_reply != nullptr, "query requires a reply callback");
  // Queries go to the instance's first rank; query volume is negligible
  // next to publish volume. A query has no retry policy, so it completes
  // only with its reply.
  engine_->call(instance_ranks_.front(), "soma.query", request,
                [on_reply = std::move(on_reply)](net::Engine::Result result) {
                  on_reply(datamodel::Node::unpack(result.body));
                });
}

}  // namespace soma::core
