// Ablation X4: batched publish pipeline.
//
// Sweeps the client-side coalescing window (off, 2 .. 64 records per batch
// frame) against a fixed monitoring load on a deliberately heavy single-rank
// service, and reports the publish RPC frame count, the mean per-record ack
// latency, and how the batches were flushed (size vs delay bound).
// Demonstrates the amortization the batch wire path buys: the per-frame
// ingest base cost is paid once per batch instead of once per record, so
// frames drop ~linearly with the window while stored records stay identical.

#include <memory>

#include "bench_util.hpp"
#include "net/rpc.hpp"
#include "sim/simulation.hpp"
#include "soma/client.hpp"
#include "soma/service.hpp"

using namespace soma;

namespace {

struct Outcome {
  std::uint64_t frames = 0;          ///< publish RPC requests sent
  std::uint64_t records = 0;         ///< records the service stored
  std::uint64_t batches = 0;         ///< batch frames the service absorbed
  std::uint64_t size_flushes = 0;
  std::uint64_t delay_flushes = 0;
  double mean_ack_ms = 0.0;          ///< per record, send -> ack
  double max_queue_ms = 0.0;
};

Outcome run(std::size_t batch_records) {
  const int clients = 64;
  const int burst = 8;              // records per monitor tick
  const double period_s = 0.5;
  const double horizon_s = 60.0;

  sim::Simulation simulation;
  net::Network network(simulation, net::NetworkConfig{});

  core::ServiceConfig config;
  config.namespaces = {core::Namespace::kHardware};
  config.cost.base = Duration::microseconds(400);  // deliberately heavy
  config.cost.per_kib = Duration::microseconds(50);
  core::SomaService service(network, {0}, config);

  core::BatchingConfig batching;
  batching.max_records = batch_records;  // 0 = batching off
  batching.max_delay = Duration::seconds(1.0);

  std::vector<std::unique_ptr<core::SomaClient>> stubs;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tickers;
  for (int c = 0; c < clients; ++c) {
    stubs.push_back(std::make_unique<core::SomaClient>(
        network, 1 + c % 8, 7000 + c, core::Namespace::kHardware,
        service.instance(core::Namespace::kHardware).ranks,
        core::ClientReliability{}, batching));
    core::SomaClient* stub = stubs.back().get();
    const std::string source = "cn" + std::to_string(c);
    tickers.push_back(std::make_unique<sim::PeriodicTask>(
        simulation, Duration::seconds(period_s), [stub, source] {
          for (int r = 0; r < burst; ++r) {
            datamodel::Node data;
            data["Uptime"].set(std::int64_t{1});
            data["stat"]["cpu"].set(
                std::vector<std::int64_t>{1, 2, 3, 4, 5, 6});
            stub->publish(source, std::move(data));
          }
        }));
    // Stagger starts to avoid a synthetic synchronized burst.
    tickers.back()->start(Duration::seconds(period_s * c / clients));
  }

  simulation.run_until(SimTime::from_seconds(horizon_s));
  for (auto& ticker : tickers) ticker->stop();
  for (auto& stub : stubs) stub->flush_batches();
  simulation.run();

  Outcome outcome;
  Duration total_ack;
  std::uint64_t acked = 0;
  for (const auto& stub : stubs) {
    outcome.frames += stub->engine_stats().requests_sent;
    outcome.size_flushes += stub->batcher_stats().size_flushes;
    outcome.delay_flushes += stub->batcher_stats().delay_flushes;
    total_ack += stub->stats().total_ack_latency;
    acked += stub->stats().acked;
  }
  outcome.records = service.publishes_received();
  outcome.batches = service.batches_received();
  outcome.mean_ack_ms =
      acked ? total_ack.to_seconds() * 1e3 / double(acked) : 0.0;
  outcome.max_queue_ms = service.max_queue_delay().to_seconds() * 1e3;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::reject_arguments(argc, argv);
  bench::header("Ablation X4",
                "batched publish: frames and ack latency vs batch window");

  TextTable table({"batch", "frames", "vs off", "records", "batches",
                   "size/delay flushes", "mean ack (ms)", "max queue (ms)"});
  Outcome off;
  for (std::size_t batch : {0, 2, 4, 8, 16, 32, 64}) {
    const Outcome o = run(batch);
    if (batch == 0) off = o;
    const double reduction =
        o.frames ? double(off.frames) / double(o.frames) : 0.0;
    table.add_row({batch == 0 ? "off" : std::to_string(batch),
                   std::to_string(o.frames),
                   batch == 0 ? "1.0x" : bench::fmt(reduction, 1) + "x",
                   std::to_string(o.records), std::to_string(o.batches),
                   std::to_string(o.size_flushes) + "/" +
                       std::to_string(o.delay_flushes),
                   bench::fmt(o.mean_ack_ms, 3),
                   bench::fmt(o.max_queue_ms, 3)});
  }
  std::printf("%s", table.to_string().c_str());

  const Outcome sixteen = run(16);
  bench::section("acceptance checks (batch window 16 vs off)");
  bench::paper_vs_measured(
      "publish RPC frames reduced >= 5x", ">= 5x",
      off.frames >= 5 * sixteen.frames
          ? "yes (" +
                bench::fmt(double(off.frames) / double(sixteen.frames), 1) +
                "x: " + std::to_string(off.frames) + " -> " +
                std::to_string(sixteen.frames) + ")"
          : "NO (" + std::to_string(off.frames) + " -> " +
                std::to_string(sixteen.frames) + ")");
  bench::paper_vs_measured(
      "mean ack latency per record drops", "lower",
      sixteen.mean_ack_ms < off.mean_ack_ms
          ? "yes (" + bench::fmt(off.mean_ack_ms, 3) + "ms -> " +
                bench::fmt(sixteen.mean_ack_ms, 3) + "ms)"
          : "NO (" + bench::fmt(off.mean_ack_ms, 3) + "ms -> " +
                bench::fmt(sixteen.mean_ack_ms, 3) + "ms)");
  bench::paper_vs_measured(
      "stored record count unchanged", "identical",
      sixteen.records == off.records
          ? "yes (" + std::to_string(off.records) + ")"
          : "NO (" + std::to_string(off.records) + " vs " +
                std::to_string(sixteen.records) + ")");
  return 0;
}
