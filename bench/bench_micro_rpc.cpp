// Micro-benchmarks (google-benchmark): the RPC engine and event loop.
//
// Measures simulator throughput: how many simulated RPC round-trips and raw
// events the host machine processes per second. This bounds the wall-clock
// cost of the large Scaling B sweeps.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_micro_main.hpp"
#include "net/rpc.hpp"
#include "sim/simulation.hpp"
#include "soma/client.hpp"
#include "soma/service.hpp"

using namespace soma;

namespace {

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation simulation;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      simulation.schedule(Duration::microseconds(i), [] {});
    }
    state.ResumeTiming();
    simulation.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(100000);

void BM_RpcRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation simulation;
    net::Network network(simulation, net::NetworkConfig{});
    net::Engine server(network, net::make_address(0, 1));
    net::Engine client(network, net::make_address(1, 1));
    server.define("echo",
                  [](const net::Address&, const datamodel::Node& args) {
                    return args;
                  });
    datamodel::Node payload;
    payload["stat"].set(std::vector<std::int64_t>{1, 2, 3, 4, 5, 6});
    const int n = static_cast<int>(state.range(0));
    state.ResumeTiming();

    for (int i = 0; i < n; ++i) {
      client.call(server.id(), "echo", payload);
    }
    simulation.run();
    benchmark::DoNotOptimize(server.stats().requests_handled);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RpcRoundTrip)->Arg(1000)->Arg(10000);

void BM_PeriodicTasks(benchmark::State& state) {
  // Many concurrent periodic monitors ticking over a long horizon — the
  // hot loop of the 512-node runs.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation simulation;
    std::vector<std::unique_ptr<sim::PeriodicTask>> tasks;
    int ticks = 0;
    for (int i = 0; i < state.range(0); ++i) {
      tasks.push_back(std::make_unique<sim::PeriodicTask>(
          simulation, Duration::seconds(10.0), [&ticks] { ++ticks; }));
      tasks.back()->start(Duration::milliseconds(i));
    }
    state.ResumeTiming();
    simulation.run_until(SimTime::from_seconds(600.0));
    for (auto& task : tasks) task->stop();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 60);
}
BENCHMARK(BM_PeriodicTasks)->Arg(64)->Arg(512);

void BM_Publish(benchmark::State& state) {
  // The end-to-end publish path at 2 ranks, one factor per axis: client
  // batching off or 16-record windows (soma.publish vs soma.publish_batch
  // frames) by replication factor 1 or 2 (no log vs a replication log
  // shipped to the successor rank, plus heartbeats). Neighbouring cells
  // differ in one thing, so each cost can be read off on its own.
  const auto batch = static_cast<std::size_t>(state.range(0));
  const int factor = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation simulation;
    net::Network network(simulation, net::NetworkConfig{});
    core::ServiceConfig service_config;
    service_config.namespaces = {core::Namespace::kHardware};
    service_config.ranks_per_namespace = 2;
    service_config.replication.factor = factor;
    core::SomaService service(network, {0}, service_config);
    core::BatchingConfig batching;
    batching.max_records = batch;
    core::SomaClient client(network, 1, 7000, core::Namespace::kHardware,
                            service.instance(core::Namespace::kHardware).ranks,
                            {}, batching);
    datamodel::Node payload;
    payload["cpu_utilization"].set(0.5);
    char source[16];
    state.ResumeTiming();

    for (int i = 0; i < n; ++i) {
      std::snprintf(source, sizeof(source), "host%d", i % 8);
      client.publish(source, payload);
    }
    client.flush_batches();
    if (service.replication() != nullptr) {
      // Publishes and replication frames all land within the first
      // simulated seconds; stopping the heartbeats then lets the run drain.
      simulation.run_until(SimTime::from_seconds(30.0));
      service.replication()->stop();
    }
    simulation.run();
    benchmark::DoNotOptimize(service.publishes_received());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Publish)
    ->ArgNames({"batch", "factor", "records"})
    ->ArgsProduct({{0, 16}, {1, 2}, {1000, 10000}});

}  // namespace

int main(int argc, char** argv) {
  return soma::bench::run_micro_benchmarks(argc, argv, "micro_rpc");
}
