// RAPTOR function-task throughput (paper §2.1).
//
// RP "utilizes a dedicated subsystem called RAPTOR to execute Python
// functions at a very large scale". This bench quantifies why: the same
// stream of small work units executed (a) as individual RP executable tasks
// (scheduler decision + launcher spawn each) and (b) as RAPTOR function
// calls through a persistent worker pool.

#include "bench_util.hpp"
#include "raptor/raptor.hpp"

using namespace soma;

namespace {

rp::SessionConfig session_config() {
  rp::SessionConfig config;
  config.platform = cluster::summit(5);
  config.pilot.nodes = 5;
  config.seed = 41;
  return config;
}

double run_raptor(int units, Duration unit, int workers, int slots) {
  rp::Session session(session_config());
  raptor::RaptorMaster master(
      session,
      raptor::RaptorConfig{.workers = workers, .cores_per_worker = slots});
  int done = 0;
  std::optional<SimTime> begin;
  SimTime end;
  session.start([&] {
    master.start([&] { begin = session.simulation().now(); });
    master.submit_many(units, unit, [&](const raptor::FunctionResult&) {
      if (++done == units) {
        end = session.simulation().now();
        master.shutdown();
        session.finalize();
      }
    });
  });
  session.run();
  return (end - *begin).to_seconds();
}

double run_tasks(int units, Duration unit) {
  rp::Session session(session_config());
  int done = 0;
  std::optional<SimTime> begin;
  SimTime end;
  session.add_task_completion_listener(
      [&](const rp::Task&) {
        if (++done == units) {
          end = session.simulation().now();
          session.finalize();
        }
      });
  session.start([&] {
    begin = session.simulation().now();
    for (int i = 0; i < units; ++i) {
      rp::TaskDescription d;
      d.ranks = 1;
      d.fixed_duration = unit;
      session.submit(d);
    }
  });
  session.run();
  return (end - *begin).to_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  bench::reject_arguments(argc, argv);
  bench::header("RAPTOR throughput",
                "function-call path vs executable-task path");

  TextTable table({"units", "unit time", "RP tasks (s)",
                   "RAPTOR 4x8 (s)", "RAPTOR 8x16 (s)", "best speedup"});
  for (const auto& [units, unit_ms] :
       std::vector<std::pair<int, int>>{{200, 100}, {1000, 100}, {1000, 10}}) {
    const Duration unit = Duration::milliseconds(unit_ms);
    const double tasks = run_tasks(units, unit);
    const double raptor_small = run_raptor(units, unit, 4, 8);
    const double raptor_large = run_raptor(units, unit, 8, 16);
    const double best = std::min(raptor_small, raptor_large);
    table.add_row({std::to_string(units), std::to_string(unit_ms) + " ms",
                   bench::fmt(tasks), bench::fmt(raptor_small),
                   bench::fmt(raptor_large),
                   bench::fmt(tasks / best, 1) + "x"});
  }
  std::printf("%s", table.to_string().c_str());

  bench::section("reading");
  std::printf(
      "  * every executable task pays a serial scheduler decision plus a\n"
      "    launcher spawn/teardown; function calls through the persistent\n"
      "    worker pool pay only a dispatch overhead — the smaller the unit\n"
      "    of work, the larger RAPTOR's advantage.\n");
  return 0;
}
