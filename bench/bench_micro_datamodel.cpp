// Micro-benchmarks (google-benchmark): the Conduit-like data model.
//
// The data model sits on every publish path; these measure the operations
// the monitors perform per tick: building a /proc-style snapshot and packing
// it for the wire, or writing it packed with no tree, unpacking at the
// service, and path lookups.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_micro_main.hpp"
#include "cluster/platform.hpp"
#include "cluster/proc.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "datamodel/node.hpp"
#include "sim/simulation.hpp"

using namespace soma;
using namespace soma::datamodel;

namespace {

Node make_proc_like(int cores) {
  Node node;
  Node& at = node["cn0001"]["1698435412606003000"];
  at["Uptime"].set(std::int64_t{49902});
  at["Num Processes"].set(std::int64_t{3});
  at["Available RAM"].set(std::int64_t{8422});
  Node& stat = at["stat"];
  for (int c = -1; c < cores; ++c) {
    const std::string key = c < 0 ? "cpu" : "cpu" + std::to_string(c);
    stat[key].set(std::vector<std::int64_t>{10749, 865, 685, 9293, 999, 745});
  }
  return node;
}

void BM_BuildProcSnapshot(benchmark::State& state) {
  for (auto _ : state) {
    Node node = make_proc_like(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(node);
  }
}
BENCHMARK(BM_BuildProcSnapshot)->Arg(8)->Arg(42);

void BM_Pack(benchmark::State& state) {
  const Node node = make_proc_like(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto wire = node.pack();
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(node.packed_size()));
}
BENCHMARK(BM_Pack)->Arg(8)->Arg(42);

// The /proc snapshot as the hardware monitor writes it each tick: the host
// head and cluster::make_proc_snapshot on a Summit node (42 usable cores, so
// 43 stat rows, the shape of make_proc_like(42)), packed with no tree.
void BM_WriteProcSnapshot(benchmark::State& state) {
  sim::Simulation simulation;
  const cluster::Platform platform(simulation, cluster::summit(1));
  const cluster::ComputeNode& node = platform.node(0);
  const SimTime now = SimTime::from_seconds(100);
  Rng rng(1);
  auto write = [&](std::vector<std::byte>& wire, std::size_t size_hint) {
    PackWriter out(wire, size_hint);
    out.object(1);
    out.name(node.hostname());
    out.object(1);
    cluster::make_proc_snapshot(out, node, now, rng);
  };
  std::vector<std::byte> first;
  write(first, 0);
  if (Node::unpack(first).pack() != first) {
    state.SkipWithError("written snapshot does not round-trip through unpack");
    return;
  }
  for (auto _ : state) {
    std::vector<std::byte> wire;
    write(wire, first.size());
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(first.size()));
}
BENCHMARK(BM_WriteProcSnapshot);

void BM_Unpack(benchmark::State& state) {
  const Node node = make_proc_like(static_cast<int>(state.range(0)));
  const auto wire = node.pack();
  for (auto _ : state) {
    Node back = Node::unpack(wire);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_Unpack)->Arg(8)->Arg(42);

// RpMonitor's `events` node at 512 pipelines: one object with a child per
// task uid (6685), each holding its timestamped events. The widest object
// any bench decodes, where decode used to scan all earlier siblings per
// child.
Node make_events_like(int tasks) {
  Node events;
  for (int i = 0; i < tasks; ++i) {
    char uid[16];
    std::snprintf(uid, sizeof(uid), "task.%06d", i);
    Node& task = events[uid];
    task[std::to_string(1698435412606003000LL + i)].set("rank_start");
    task[std::to_string(1698435422606003000LL + i)].set("rank_stop");
  }
  return events;
}

void BM_UnpackEvents(benchmark::State& state) {
  const Node node = make_events_like(static_cast<int>(state.range(0)));
  const auto wire = node.pack();
  for (auto _ : state) {
    Node back = Node::unpack(wire);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_UnpackEvents)->Arg(6685);

void BM_PathFetch(benchmark::State& state) {
  Node node = make_proc_like(42);
  for (auto _ : state) {
    const Node& leaf =
        node.fetch_existing("cn0001/1698435412606003000/stat/cpu17");
    benchmark::DoNotOptimize(&leaf);
  }
}
BENCHMARK(BM_PathFetch);

void BM_DeepCopy(benchmark::State& state) {
  const Node node = make_proc_like(42);
  for (auto _ : state) {
    Node copy = node;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_DeepCopy);

void BM_Update(benchmark::State& state) {
  const Node base = make_proc_like(42);
  const Node patch = make_proc_like(42);
  for (auto _ : state) {
    Node merged = base;
    merged.update(patch);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_Update);

void BM_ToJson(benchmark::State& state) {
  const Node node = make_proc_like(42);
  for (auto _ : state) {
    std::string json = node.to_json();
    benchmark::DoNotOptimize(json);
  }
}
BENCHMARK(BM_ToJson);

}  // namespace

int main(int argc, char** argv) {
  return soma::bench::run_micro_benchmarks(argc, argv, "micro_datamodel");
}
