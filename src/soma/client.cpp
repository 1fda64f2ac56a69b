#include "soma/client.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "common/log.hpp"
#include "net/wire.hpp"
#include "soma/storage_backend.hpp"

namespace soma::core {

SomaClient::SomaClient(net::Network& network, NodeId node, int port,
                       Namespace ns,
                       const std::vector<net::Address>& instance_ranks,
                       ClientReliability reliability, BatchingConfig batching)
    : network_(network),
      ns_(ns),
      reliability_(reliability),
      batching_(batching) {
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
  if (batching_.enabled()) {
    batcher_ = std::make_unique<PublishBatcher>(
        network_.simulation(), std::string(to_string(ns_)),
        instance_ranks_.size(), batching_,
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
  ++stats_.published;
  const SimTime now = network_.simulation().now();
  if (reliability_.degradation_enabled()) {
    // Park the record if its collector is down — or if anything is already
    // parked: replay order must not let a fresh publish overtake a buffered
    // one from the same source.
    if (!buffer_.empty() || rank_down_[rank_index_for(source)]) {
      enqueue_buffered(source, std::move(data), now, std::move(on_ack));
      return;
    }
  }
  if (batcher_) {
    // Coalesce. The batcher keeps a payload copy only when a failed batch
    // must fall back to the re-buffer path (same rule as the single-record
    // send below).
    batcher_->add(rank_index_for(source), source, std::move(data), now,
                  std::move(on_ack), reliability_.degradation_enabled());
    return;
  }
  send_publish(source, std::move(data), now, std::move(on_ack),
               /*replay=*/false);
}

void SomaClient::flush_batches() {
  if (batcher_) batcher_->flush_all();
}

void SomaClient::send_publish(const std::string& source, datamodel::Node data,
                              SimTime published_at,
                              std::function<void()> on_ack, bool replay,
                              bool from_batch) {
  const std::size_t idx = rank_index_for(source);

  // Keep a copy only when a failed send must be re-buffered; plain and
  // retry-only clients never pay it.
  datamodel::Node data_copy;
  if (reliability_.degradation_enabled()) data_copy = data;

  // The body is the packed {ns, source, data[, t]} envelope, written
  // straight into the frame. Replayed records carry their original publish
  // time so the service stores them under the timestamp the data was
  // produced at.
  const std::string_view ns = to_string(ns_);
  const std::size_t data_size = data.packed_size();
  std::optional<std::int64_t> t;
  if (replay) t = published_at.nanos();
  const auto encode = [&](std::vector<std::byte>& frame) {
    net::wire::encode_publish_body(frame, ns, source, data, data_size, t);
  };

  const SimTime sent_at = network_.simulation().now();
  auto on_response = [this, sent_at,
                      on_ack](const datamodel::Node& /*reply*/) {
    ++stats_.acked;
    const Duration latency = network_.simulation().now() - sent_at;
    stats_.total_ack_latency += latency;
    stats_.max_ack_latency = std::max(stats_.max_ack_latency, latency);
    if (on_ack) on_ack();
  };

  // A disabled retry policy sends once and never fails, so plain clients
  // build no error path.
  net::Engine::ErrorCallback on_error;
  if (reliability_.retry.enabled()) {
    on_error = [this, idx, source, data_copy = std::move(data_copy),
                published_at, on_ack,
                from_batch](const std::string& /*error*/) mutable {
      on_publish_failure(idx, source, std::move(data_copy), published_at,
                         std::move(on_ack), from_batch);
    };
  }
  engine_->call_raw(instance_ranks_[idx], "soma.publish",
                    net::wire::publish_body_size(ns, source, data_size, replay),
                    encode, std::move(on_response), reliability_.retry,
                    std::move(on_error));
}

void SomaClient::send_batch(std::size_t rank_index,
                            PublishBatcher::Batch batch) {
  if (batch.records.empty()) return;
  ++stats_.batches_sent;
  const std::size_t count = batch.records.size();
  // The per-record state is shared between the ack and error callbacks (only
  // one of them ever consumes it).
  auto records = std::make_shared<std::vector<PublishBatcher::PendingRecord>>(
      std::move(batch.records));

  const SimTime sent_at = network_.simulation().now();
  auto on_response = [this, sent_at, records,
                      count](const datamodel::Node& /*reply*/) {
    stats_.acked += count;
    const Duration latency = network_.simulation().now() - sent_at;
    stats_.total_ack_latency += latency * static_cast<double>(count);
    stats_.max_ack_latency = std::max(stats_.max_ack_latency, latency);
    for (PublishBatcher::PendingRecord& record : *records) {
      if (record.on_ack) record.on_ack();
    }
  };

  const auto encode = [&batch](std::vector<std::byte>& frame) {
    batch.body.encode(frame);
  };

  net::Engine::ErrorCallback on_error;
  if (reliability_.retry.enabled()) {
    on_error = [this, rank_index, records](const std::string& /*error*/) {
      // A failed batch degrades to the single-record reliability path:
      // every record re-buffers (or is counted failed) with its original
      // publish timestamp, so replay is indistinguishable from a failed
      // record-at-a-time run.
      for (PublishBatcher::PendingRecord& record : *records) {
        on_publish_failure(rank_index, record.source, std::move(record.data),
                           record.published_at, std::move(record.on_ack),
                           /*from_batch=*/true);
      }
    };
  }
  engine_->call_raw(instance_ranks_[rank_index], "soma.publish_batch",
                    batch.body.body_size(), encode, std::move(on_response),
                    reliability_.retry, std::move(on_error));
}

void SomaClient::enqueue_buffered(const std::string& source,
                                  datamodel::Node data, SimTime published_at,
                                  std::function<void()> on_ack,
                                  bool from_batch) {
  if (buffer_.size() >= reliability_.max_buffered) {
    if (buffer_.front().from_batch) {
      ++stats_.dropped_batch_records;
    } else {
      ++stats_.dropped_overflow;
    }
    buffer_.pop_front();
  }
  buffer_.push_back(Buffered{next_buffer_seq_++, source, std::move(data),
                             published_at, std::move(on_ack), from_batch});
  ++stats_.buffered;
  ensure_probe_running();
}

void SomaClient::on_publish_failure(std::size_t rank_index,
                                    const std::string& source,
                                    datamodel::Node data, SimTime published_at,
                                    std::function<void()> on_ack,
                                    bool from_batch) {
  ++stats_.publish_failures;
  set_rank_down(rank_index, true);
  SOMA_DEBUG() << "soma client " << address() << ": collector "
               << network_.address(instance_ranks_[rank_index])
               << " unresponsive";
  // Only a client with retry enabled sees failures, so buffering here means
  // degradation is enabled; enqueue_buffered starts the probe.
  if (reliability_.buffer_on_failure) {
    enqueue_buffered(source, std::move(data), published_at, std::move(on_ack),
                     from_batch);
  }
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
  // (published_at, seq) rather than trusting queue order — the store's
  // per-source series must stay time-ascending.
  std::sort(ready.begin(), ready.end(),
            [](const Buffered& a, const Buffered& b) {
              if (a.published_at != b.published_at) {
                return a.published_at < b.published_at;
              }
              return a.seq < b.seq;
            });
  for (Buffered& record : ready) {
    ++stats_.replayed;
    send_publish(record.source, std::move(record.data), record.published_at,
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
        [this, i](const datamodel::Node& /*reply*/) {
          probe_in_flight_[i] = 0;
          set_rank_down(i, false);
          SOMA_DEBUG() << "soma client " << address() << ": collector "
                       << network_.address(instance_ranks_[i])
                       << " recovered";
          flush_buffer();
        },
        probe, [this, i](const std::string& /*error*/) {
          probe_in_flight_[i] = 0;
        });
  }
  if (!any_down && buffer_.empty()) probe_task_->stop();
}

void SomaClient::query(datamodel::Node request,
                       std::function<void(datamodel::Node)> on_reply) {
  check(on_reply != nullptr, "query requires a reply callback");
  // Queries go to the instance's first rank; query volume is negligible
  // next to publish volume.
  engine_->call(instance_ranks_.front(), "soma.query", std::move(request),
                std::move(on_reply));
}

}  // namespace soma::core
