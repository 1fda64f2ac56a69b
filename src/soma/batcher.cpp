#include "soma/batcher.hpp"

#include "common/error.hpp"

namespace soma::core {

PublishBatcher::PublishBatcher(sim::Simulation& simulation, std::string ns,
                               std::size_t rank_count, BatchingConfig config,
                               FlushFn flush)
    : simulation_(simulation),
      ns_(std::move(ns)),
      config_(config),
      flush_(std::move(flush)),
      ranks_(rank_count) {
  check(config_.enabled(), "publish batcher needs max_records >= 1");
  check(config_.max_delay > Duration::zero(),
        "publish batcher needs a positive max_delay");
  check(flush_ != nullptr, "publish batcher needs a flush function");
  check(rank_count > 0, "publish batcher needs >= 1 rank");
}

PublishBatcher::~PublishBatcher() {
  // Cancel outstanding delay timers; their events capture `this`. Open
  // batches are dropped — owners flush explicitly on shutdown.
  for (PerRank& rank : ranks_) rank.timer.cancel();
}

void PublishBatcher::add(std::size_t rank_index, const std::string& source,
                         const datamodel::Node& data, SimTime published_at,
                         std::function<void()> on_ack) {
  check(rank_index < ranks_.size(), "batcher rank index out of range");
  PerRank& rank = ranks_[rank_index];
  if (!rank.open) {
    rank.open.emplace(Batch{net::wire::BatchBodyWriter(ns_), {}});
    rank.timer = simulation_.schedule(config_.max_delay, [this, rank_index] {
      ++stats_.delay_flushes;
      flush(rank_index);
    });
  }

  Batch& batch = *rank.open;
  batch.body.add(source, published_at.nanos(), data);
  batch.on_acks.push_back(std::move(on_ack));
  ++stats_.records_batched;

  if (batch.body.record_count() >= config_.max_records) {
    ++stats_.size_flushes;
    flush(rank_index);
  } else if (config_.max_bytes > 0 &&
             batch.body.body_size() >= config_.max_bytes) {
    ++stats_.byte_flushes;
    flush(rank_index);
  }
}

void PublishBatcher::flush(std::size_t rank_index) {
  PerRank& rank = ranks_[rank_index];
  if (!rank.open) return;
  rank.timer.cancel();
  Batch batch = std::move(*rank.open);
  rank.open.reset();
  ++stats_.batches_flushed;
  flush_(rank_index, std::move(batch));
}

void PublishBatcher::flush_all() {
  for (std::size_t i = 0; i < ranks_.size(); ++i) flush(i);
}

std::size_t PublishBatcher::pending_records() const {
  std::size_t total = 0;
  for (const PerRank& rank : ranks_) {
    if (rank.open) total += rank.open->body.record_count();
  }
  return total;
}

}  // namespace soma::core
