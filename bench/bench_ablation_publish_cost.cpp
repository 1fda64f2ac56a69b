// Ablation X1 (DESIGN.md): SOMA publish cost decomposition.
//
// Sweeps publish rate and service rank count against a fixed client
// population and reports where the time goes: network transfer, service
// queueing, and ingest. Demonstrates the queueing-theoretic knee that makes
// under-provisioned SOMA instances fall behind at high monitoring frequency
// — the mechanism DESIGN.md §3.3 cites for Fig. 11.

#include <memory>

#include "bench_util.hpp"
#include "net/rpc.hpp"
#include "sim/simulation.hpp"
#include "soma/client.hpp"
#include "soma/service.hpp"

using namespace soma;

namespace {

struct Outcome {
  double mean_ack_ms = 0.0;
  double max_queue_ms = 0.0;
  double service_busy_fraction = 0.0;
};

Outcome run(int clients, double period_s, int ranks, double horizon_s) {
  sim::Simulation simulation;
  net::Network network(simulation, net::NetworkConfig{});

  core::ServiceConfig config;
  config.ranks_per_namespace = ranks;
  config.namespaces = {core::Namespace::kHardware};
  config.cost.base = Duration::microseconds(500);  // deliberately heavy
  config.cost.per_kib = Duration::microseconds(50);
  core::SomaService service(network, {0}, config);

  std::vector<std::unique_ptr<core::SomaClient>> stubs;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tickers;
  for (int c = 0; c < clients; ++c) {
    stubs.push_back(std::make_unique<core::SomaClient>(
        network, 1 + c % 8, 7000 + c, core::Namespace::kHardware,
        service.instance(core::Namespace::kHardware).ranks));
    core::SomaClient* stub = stubs.back().get();
    const std::string source = "cn" + std::to_string(c);
    tickers.push_back(std::make_unique<sim::PeriodicTask>(
        simulation, Duration::seconds(period_s), [stub, source] {
          datamodel::Node data;
          data["Uptime"].set(std::int64_t{1});
          data["stat"]["cpu"].set(
              std::vector<std::int64_t>{1, 2, 3, 4, 5, 6});
          stub->publish(source, std::move(data));
        }));
    // Stagger starts to avoid a synthetic synchronized burst.
    tickers.back()->start(Duration::seconds(period_s * c / clients));
  }

  simulation.run_until(SimTime::from_seconds(horizon_s));
  for (auto& ticker : tickers) ticker->stop();
  simulation.run();

  Outcome outcome;
  Duration total_ack;
  std::uint64_t acked = 0;
  for (const auto& stub : stubs) {
    total_ack += stub->stats().total_ack_latency;
    acked += stub->stats().acked;
  }
  outcome.mean_ack_ms =
      acked ? total_ack.to_seconds() * 1e3 / double(acked) : 0.0;
  outcome.max_queue_ms = service.max_queue_delay().to_seconds() * 1e3;
  const net::EngineStats stats =
      service.instance_stats(core::Namespace::kHardware);
  outcome.service_busy_fraction =
      stats.total_service_time.to_seconds() / (horizon_s * ranks);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::reject_arguments(argc, argv);
  bench::header("Ablation X1", "SOMA publish cost vs frequency and ranks");

  const int clients = 128;
  const double horizon = 120.0;

  TextTable table({"clients", "period (s)", "service ranks", "mean ack (ms)",
                   "max queue (ms)", "rank busy fraction"});
  for (double period : {60.0, 10.0, 1.0, 0.1, 0.05}) {
    for (int ranks : {1, 4, 16}) {
      const Outcome o = run(clients, period, ranks, horizon);
      table.add_row({std::to_string(clients), bench::fmt(period, 2),
                     std::to_string(ranks), bench::fmt(o.mean_ack_ms, 3),
                     bench::fmt(o.max_queue_ms, 3),
                     bench::fmt_pct(o.service_busy_fraction, 2)});
    }
  }
  std::printf("%s", table.to_string().c_str());

  bench::section("reading");
  std::printf(
      "  * at 60s/10s the service idles regardless of rank count (the\n"
      "    Scaling B regime: SOMA keeps pace);\n"
      "  * at 0.05s a single rank saturates (busy fraction -> 1) and queue\n"
      "    delay explodes, while 16 ranks absorb the same load — the\n"
      "    namespace-instance partitioning knob the paper provisions via\n"
      "    'SOMA Ranks Per Namespace'.\n");
  return 0;
}
