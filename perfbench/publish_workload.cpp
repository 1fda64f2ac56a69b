// publish_storm and publish_batched_replicated: 128 clients on 8 nodes
// publish small hardware-shaped records, open loop in simulated time, to one
// hardware namespace instance with a heavy ingest cost model, while an
// in-situ reader queries the store once per simulated second.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "probes.hpp"
#include "sim/simulation.hpp"
#include "soma/client.hpp"
#include "soma/service.hpp"
#include "workloads.hpp"

namespace perfbench {

using soma::Duration;
using soma::SimTime;
using soma::core::Namespace;
using soma::datamodel::Node;

namespace {

constexpr int kClients = 128;
constexpr int kClientNodes = 8;
constexpr int kRanks = 2;
constexpr double kHorizonS = 20.0;
/// Mean publish period per client; individual periods spread +-5 % so the
/// clients drift in and out of phase over the run.
constexpr double kMeanPeriodS = 0.05;
constexpr double kReadWindowS = 10.0;

struct ClientPlan {
  std::string source;
  Duration period;
  Duration phase;
};

/// Everything one repetition builds. Members are destroyed in reverse
/// order: tasks before clients before the service before the fabric.
struct PublishStack {
  soma::sim::Simulation simulation;
  soma::net::Network network{simulation, soma::net::NetworkConfig{}};
  std::unique_ptr<soma::core::SomaService> service;
  std::vector<std::unique_ptr<soma::core::SomaClient>> clients;
  std::vector<soma::Rng> payload_rngs;
  std::vector<std::unique_ptr<soma::sim::PeriodicTask>> tickers;
  std::unique_ptr<soma::sim::PeriodicTask> reader;

  std::vector<ClientPlan> plans;
  bool traced = false;
  // Per publish id: when it was due, and how often it was acked.
  std::vector<SimTime> due;
  std::vector<std::uint8_t> acks;
  std::vector<double> ack_ms;
  std::size_t peak_pending = 0;
  std::size_t reader_cursor = 0;
  OpStats publish_call, view_latest, view_range, view_sources;

  void tick(std::size_t c);
  void read();
};

void PublishStack::tick(std::size_t c) {
  const ClientPlan& plan = plans[c];
  soma::Rng& rng = payload_rngs[c];
  const auto id = static_cast<std::int64_t>(due.size());
  due.push_back(simulation.now());
  acks.push_back(0);

  Node data;
  Node& host = data[plan.source];
  host["seq"].set(id);
  host["cpu_utilization"].set(rng.uniform());
  host["gpu_utilization"].set(rng.uniform());
  Node& proc = host["proc"];
  proc["Available RAM"].set(
      static_cast<std::int64_t>(rng.uniform(2.0e5, 5.0e5)));
  std::vector<std::int64_t> cpu(8);
  for (auto& jiffies : cpu) {
    jiffies = static_cast<std::int64_t>(rng.uniform(0.0, 1.0e6));
  }
  proc["stat"]["cpu"].set(std::move(cpu));

  auto on_ack = [this, id] {
    const auto index = static_cast<std::size_t>(id);
    if (acks[index]++ == 0) {
      ack_ms.push_back((simulation.now() - due[index]).to_seconds() * 1e3);
    }
  };
  if (traced) {
    timed(publish_call, [&] {
      clients[c]->publish(plan.source, std::move(data), on_ack);
    });
  } else {
    clients[c]->publish(plan.source, std::move(data), on_ack);
  }
}

void PublishStack::read() {
  peak_pending = std::max(peak_pending, simulation.pending());
  const soma::core::StoreView view = service->store_view();
  const std::string& source = plans[reader_cursor++ % plans.size()].source;
  const SimTime now = simulation.now();
  const SimTime from = now - Duration::seconds(kReadWindowS);
  if (traced) {
    timed(view_sources, [&] { return view.sources(Namespace::kHardware); });
    timed(view_latest, [&] { return view.latest(Namespace::kHardware, source); });
    timed(view_range,
          [&] { return view.range(Namespace::kHardware, source, from, now); });
  } else {
    (void)view.sources(Namespace::kHardware);
    (void)view.latest(Namespace::kHardware, source);
    (void)view.range(Namespace::kHardware, source, from, now);
  }
}

std::unique_ptr<PublishStack> build_stack(const RepOptions& options,
                                          bool batched_replicated) {
  auto stack = std::make_unique<PublishStack>();
  stack->traced = options.traced;
  soma::Rng rng(options.seed);

  if (batched_replicated) {
    // The lossy-fabric profile of the fault benches, seeded by the workload.
    soma::net::FaultConfig faults;
    faults.seed = options.seed;
    faults.default_link.drop_probability = 0.01;
    faults.default_link.spike_probability = 0.02;
    stack->network.install_faults(faults);
  }

  soma::core::ServiceConfig config;
  config.ranks_per_namespace = kRanks;
  config.namespaces = {Namespace::kHardware};
  config.cost.base = Duration::microseconds(500);  // deliberately heavy
  config.cost.per_kib = Duration::microseconds(50);
  if (batched_replicated) {
    config.replication.factor = 2;
    config.replication.seed = options.seed;
  }
  stack->service = std::make_unique<soma::core::SomaService>(
      stack->network, std::vector<soma::NodeId>{0}, config);

  soma::core::ClientReliability reliability;
  soma::core::BatchingConfig batching;
  if (batched_replicated) {
    reliability.retry.max_attempts = 4;
    reliability.retry.timeout = Duration::milliseconds(100);
    reliability.buffer_on_failure = true;
    reliability.probe_period = Duration::seconds(5);
    batching.max_records = 16;
    batching.max_delay = Duration::seconds(1.0);
  }

  const auto& ranks = stack->service->instance(Namespace::kHardware).ranks;
  const std::size_t expected =
      static_cast<std::size_t>(kClients * (kHorizonS / kMeanPeriodS) * 1.1);
  stack->due.reserve(expected);
  stack->acks.reserve(expected);
  stack->ack_ms.reserve(expected);
  for (int c = 0; c < kClients; ++c) {
    ClientPlan plan;
    plan.source = "cn" + std::to_string(c);
    plan.period = Duration::seconds(kMeanPeriodS * rng.uniform(0.95, 1.05));
    plan.phase = Duration::seconds(plan.period.to_seconds() * rng.uniform());
    stack->plans.push_back(plan);
    stack->payload_rngs.push_back(rng.split(static_cast<std::uint64_t>(c)));
    stack->clients.push_back(std::make_unique<soma::core::SomaClient>(
        stack->network, 1 + c % kClientNodes, 7000 + c, Namespace::kHardware,
        ranks, reliability, batching));
  }
  PublishStack* raw = stack.get();
  for (std::size_t c = 0; c < stack->plans.size(); ++c) {
    stack->tickers.push_back(std::make_unique<soma::sim::PeriodicTask>(
        stack->simulation, stack->plans[c].period, [raw, c] { raw->tick(c); }));
    stack->tickers.back()->start(stack->plans[c].phase);
  }
  stack->reader = std::make_unique<soma::sim::PeriodicTask>(
      stack->simulation, Duration::seconds(1.0), [raw] { raw->read(); });
  stack->reader->start(Duration::seconds(1.0));
  return stack;
}

}  // namespace

RepResult run_publish_rep(const RepOptions& options, bool batched_replicated) {
  RepResult result;

  const std::int64_t t_setup = now_ns();
  std::unique_ptr<PublishStack> stack = build_stack(options, batched_replicated);
  const std::int64_t t_run = now_ns();

  PublishStack& s = *stack;
  s.simulation.run_until(SimTime::from_seconds(kHorizonS));
  const SimTime horizon_end = s.simulation.now();
  for (auto& ticker : s.tickers) ticker->stop();
  s.reader->stop();
  for (auto& client : s.clients) client->flush_batches();
  if (auto* replication = s.service->replication()) replication->stop();
  s.simulation.run();
  const soma::core::StoreView view = s.service->store_view();
  const std::uint64_t stored = view.total_records();
  const double p50 = soma::percentile(s.ack_ms, 50.0);
  const double p99 = soma::percentile(s.ack_ms, 99.0);
  const double tail_q = tail_percentile(s.ack_ms.size());
  const double tail = soma::percentile(s.ack_ms, tail_q);
  const std::int64_t t_done = now_ns();

  result.setup_s = static_cast<double>(t_run - t_setup) * 1e-9;
  result.wall_s = static_cast<double>(t_done - t_run) * 1e-9;
  result.events = s.simulation.events_dispatched();
  result.records = stored;

  // ---- correctness: every acked record is stored; count duplicates ----
  const std::size_t published = s.due.size();
  std::vector<std::uint32_t> stored_count(published, 0);
  std::uint64_t unknown = 0;
  Digest digest;
  std::vector<std::byte> packed;
  for (const std::string& source : view.sources(Namespace::kHardware)) {
    digest.add_string(source);
    for (const soma::core::TimedRecord* record :
         view.series(Namespace::kHardware, source)) {
      digest.add_i64(record->time.nanos());
      packed.clear();
      record->data.pack(packed);
      digest.add_bytes(packed);
      const Node* host = record->data.find_child(source);
      const Node* seq = host != nullptr ? host->find_child("seq") : nullptr;
      const std::int64_t id = seq != nullptr ? seq->as_int64() : -1;
      if (id < 0 || static_cast<std::size_t>(id) >= published) {
        ++unknown;
      } else {
        ++stored_count[static_cast<std::size_t>(id)];
      }
    }
  }
  std::uint64_t acked = 0, acked_missing = 0, distinct = 0, unacked_stored = 0;
  for (std::size_t id = 0; id < published; ++id) {
    if (s.acks[id] > 0) ++acked;
    if (s.acks[id] > 0 && stored_count[id] == 0) ++acked_missing;
    if (stored_count[id] > 0) ++distinct;
    if (s.acks[id] == 0 && stored_count[id] > 0) ++unacked_stored;
  }
  const std::uint64_t duplicates = stored - distinct;
  digest.add_u64(published);
  digest.add_u64(acked);
  digest.add_u64(stored);
  digest.add_u64(duplicates);
  result.digest = digest.hex();
  result.attempted = published;
  result.failed = published - acked;

  const auto count_text = [&] {
    return "published " + std::to_string(published) + ", acked " +
           std::to_string(acked) + ", stored " + std::to_string(stored) +
           ", duplicates " + std::to_string(duplicates);
  };
  result.checks.push_back({"every acked record is stored",
                           acked_missing == 0 && unknown == 0,
                           std::to_string(acked_missing) +
                               " acked records missing, " +
                               std::to_string(unknown) + " unknown records"});
  if (batched_replicated) {
    result.checks.push_back({"at-least-once: stored = distinct + duplicates",
                             distinct + duplicates == stored && distinct >= acked,
                             count_text()});
  } else {
    result.checks.push_back({"fault-free: stored exactly the acked records",
                             stored == acked && duplicates == 0 &&
                                 unacked_stored == 0 && acked == published,
                             count_text()});
  }

  // ---- per-layer metrics (simulated counts and traced host costs) ----
  std::uint64_t requests = 0, bytes_out = 0, retries = 0, timeouts = 0,
                calls_failed = 0, duplicate_responses = 0;
  std::uint64_t client_published = 0, client_acked = 0, buffered = 0,
                replayed = 0, batches_sent = 0, failures = 0;
  std::uint64_t batched_records = 0, batches_flushed = 0;
  for (const auto& client : s.clients) {
    const auto& e = client->engine_stats();
    requests += e.requests_sent;
    bytes_out += e.bytes_out;
    retries += e.retries;
    timeouts += e.timeouts;
    calls_failed += e.calls_failed;
    duplicate_responses += e.duplicate_responses;
    const auto& c = client->stats();
    client_published += c.published;
    client_acked += c.acked;
    buffered += c.buffered;
    replayed += c.replayed;
    batches_sent += c.batches_sent;
    failures += c.publish_failures + c.dropped_overflow + c.dropped_batch_records;
    batched_records += client->batcher_stats().records_batched;
    batches_flushed += client->batcher_stats().batches_flushed;
  }
  const soma::net::EngineStats service_stats =
      s.service->instance_stats(Namespace::kHardware);
  std::uint64_t shard_max = 0;
  for (const auto& counters : s.service->store().shard_counters()) {
    if (counters.ns == Namespace::kHardware) {
      shard_max = std::max(shard_max, counters.records);
    }
  }
  std::uint64_t replicated = 0, resync = 0, lag = 0;
  if (const auto* replication = s.service->replication()) {
    replicated = replication->stats().records_replicated;
    resync = replication->stats().resync_records;
    for (const auto& row : replication->shard_status()) {
      lag += row.replica_lag_records;
    }
  }
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const int extra_copies = s.service->config().replication.factor - 1;
  auto& L = result.layers;
  L.push_back({"sim.events", static_cast<double>(result.events), "count"});
  L.push_back({"sim.peak_pending", static_cast<double>(s.peak_pending), "count"});
  L.push_back({"net.requests_sent", static_cast<double>(requests), "count"});
  L.push_back({"net.bytes_out", static_cast<double>(bytes_out), "B"});
  L.push_back({"net.messages_dropped",
               static_cast<double>(s.network.messages_dropped()), "count"});
  L.push_back({"net.retries", static_cast<double>(retries), "count"});
  L.push_back({"net.timeouts", static_cast<double>(timeouts), "count"});
  L.push_back({"net.calls_failed", static_cast<double>(calls_failed), "count"});
  L.push_back({"net.duplicate_responses",
               static_cast<double>(duplicate_responses), "count"});
  L.push_back({"soma.client.published", static_cast<double>(client_published),
               "count"});
  L.push_back({"soma.client.acked", static_cast<double>(client_acked), "count"});
  L.push_back({"soma.client.buffered", static_cast<double>(buffered), "count"});
  L.push_back({"soma.client.replayed", static_cast<double>(replayed), "count"});
  L.push_back({"soma.batcher.batches_sent", static_cast<double>(batches_sent),
               "count"});
  L.push_back({"soma.batcher.records_per_batch",
               ratio(static_cast<double>(batched_records),
                     static_cast<double>(batches_flushed)),
               "count"});
  L.push_back({"soma.service.publishes_received",
               static_cast<double>(s.service->publishes_received()), "count"});
  L.push_back({"soma.service.batches_received",
               static_cast<double>(s.service->batches_received()), "count"});
  L.push_back({"soma.service.busy_fraction",
               ratio(service_stats.total_service_time.to_seconds(),
                     horizon_end.to_seconds() * kRanks),
               "ratio"});
  L.push_back({"soma.service.mean_queue_ms",
               ratio(service_stats.total_queue_delay.to_seconds() * 1e3,
                     static_cast<double>(service_stats.requests_handled)),
               "ms"});
  L.push_back({"soma.service.max_queue_ms",
               service_stats.max_queue_delay.to_seconds() * 1e3, "ms"});
  L.push_back({"soma.store.shard_skew",
               ratio(static_cast<double>(shard_max) * kRanks,
                     static_cast<double>(stored)),
               "ratio"});
  L.push_back({"soma.replication.records_replicated",
               static_cast<double>(replicated), "count"});
  L.push_back({"soma.replication.resync_records", static_cast<double>(resync),
               "count"});
  L.push_back({"soma.replication.replica_lag_records",
               static_cast<double>(lag), "count"});
  L.push_back({"soma.replication.ship_ratio",
               ratio(static_cast<double>(replicated),
                     static_cast<double>(stored) * extra_copies),
               "ratio"});
  L.push_back({"failed_share",
               ratio(static_cast<double>(failures),
                     static_cast<double>(client_published)),
               "ratio"});
  L.push_back({"sim_ack_p50_ms", p50, "ms"});
  L.push_back({"sim_ack_p99_ms", p99, "ms"});
  L.push_back({"sim_ack_samples", static_cast<double>(s.ack_ms.size()), "count"});
  for (const char* name : {"rp.tasks", "rp.task_events", "rp.summary_calls",
                           "monitors.hw_ticks", "monitors.rp_ticks"}) {
    L.push_back({name, 0.0, "count"});
  }
  L.push_back({"rp.summary_ns", 0.0, "ns"});
  L.push_back({"sim_overhead_pct", 0.0, "%"});
  if (options.traced) {
    L.push_back({"soma.client.publish_call_ns", s.publish_call.mean_ns(), "ns"});
    L.push_back({"soma.store.view_latest_ns", s.view_latest.mean_ns(), "ns"});
    L.push_back({"soma.store.view_range_ns", s.view_range.mean_ns(), "ns"});
    L.push_back({"soma.store.view_sources_ns", s.view_sources.mean_ns(), "ns"});
  }
  result.notes.push_back(
      "simulated ack latency: p50 " + format_number(p50) + " ms, p99 " +
      format_number(p99) + " ms, p" + format_number(tail_q) + " " +
      format_number(tail) + " ms over " + std::to_string(s.ack_ms.size()) +
      " acked publishes");

  if (options.replay) {
    const RecordSet records(view, {Namespace::kHardware});
    replay_datamodel(records, L);
    replay_wire(records, L);
    replay_storage(records, kRanks, L);
    replay_analysis(view, L);
    L.push_back({"sim.dispatch_ns", sim_dispatch_ns(s.peak_pending), "ns"});
  }

  const std::int64_t t_teardown = now_ns();
  stack.reset();
  result.teardown_s = static_cast<double>(now_ns() - t_teardown) * 1e-9;
  return result;
}

}  // namespace perfbench
