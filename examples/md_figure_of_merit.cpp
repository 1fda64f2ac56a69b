// Application-namespace example (paper §2.3.2, "Application Namespace").
//
// "A molecular dynamics code might want to capture the atom-timesteps per
// second as the figure of merit." This example instruments a synthetic MD
// application with SOMA's AppInstrument API: the app reports its figure of
// merit and progress as it steps; the records land in the APP namespace;
// afterwards the whole store is exported to a JSON-lines file and re-loaded
// to show the post-mortem path.
//
// Run:  ./build/examples/md_figure_of_merit

#include <cstdio>
#include <sstream>

#include "common/table.hpp"
#include "experiments/deployment.hpp"
#include "soma/app_instrument.hpp"
#include "soma/export.hpp"

using namespace soma;

int main() {
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(3);
  session_config.pilot.nodes = 3;
  session_config.seed = 99;
  rp::Session session(session_config);

  std::unique_ptr<experiments::SomaDeployment> deployment;
  std::unique_ptr<core::SomaClient> app_client;
  std::unique_ptr<core::AppInstrument> instrument;
  std::unique_ptr<sim::PeriodicTask> md_step;

  session.start([&] {
    experiments::DeploymentConfig config;
    config.mode = experiments::SomaMode::kExclusive;
    config.service_nodes = session.agent_node_ids();
    config.enable_hw_monitors = false;  // this example is about APP only
    config.enable_rp_monitor = false;
    deployment = std::make_unique<experiments::SomaDeployment>(session, config);

    deployment->deploy([&] {
      // The "MD application": a 30-minute task stepping a 2M-atom system.
      session.submit(rp::TaskDescription{
          .uid = "md.run42",
          .ranks = 42,
          .fixed_duration = Duration::minutes(30.0),
          .label = "md"});

      // Its SOMA instrumentation: every simulated minute, report the
      // figure of merit and progress, as the paper's MD example would.
      app_client = deployment->make_client(
          core::Namespace::kApplication, session.worker_node_ids().front());
      instrument =
          std::make_unique<core::AppInstrument>(*app_client, "md.run42");

      auto step = std::make_shared<int>(0);
      md_step = std::make_unique<sim::PeriodicTask>(
          session.simulation(), Duration::minutes(1.0), [&, step] {
            ++*step;
            const double atoms = 2.0e6;
            // Warm-up, then steady state with slow degradation (neighbor
            // lists growing): the kind of signal an adaptive consumer
            // watches for.
            const double steps_per_s =
                *step < 3 ? 40.0 + 12.0 * *step : 75.0 - 0.4 * *step;
            instrument->report_metric("atom_timesteps_per_s",
                                      atoms * steps_per_s);
            instrument->report_metric("md_step",
                                      static_cast<std::int64_t>(*step * 500));
            instrument->report_progress(*step / 30.0);
            instrument->commit();
          });
      md_step->start(Duration::minutes(1.0));

      session.add_task_completion_listener(
          [&](const rp::Task& task) {
            if (task.uid() != "md.run42") return;
            md_step->stop();
            deployment->shutdown();
            session.finalize();
          });
    });
  });
  session.run();

  // ---- read the figure-of-merit series back out of the APP namespace ----
  const core::StoreView store = deployment->service().store_view();
  std::printf("figure-of-merit series (APP namespace, %llu commits):\n",
              static_cast<unsigned long long>(instrument->commits()));
  TextTable table({"t (min)", "atom-timesteps/s", "progress", "trend"});
  const auto series =
      store.series(core::Namespace::kApplication, "md.run42");
  double previous = 0.0;
  for (const auto* record : series) {
    const auto& metrics =
        record->data.fetch_existing("md.run42").child_at(0);
    const double fom =
        metrics.fetch_existing("atom_timesteps_per_s").as_float64();
    table.add_row(
        {format_seconds(record->time.to_seconds() / 60.0, 1),
         format_seconds(fom / 1e6, 1) + "M",
         format_seconds(metrics.fetch_existing("progress").as_float64(), 2),
         previous == 0.0 ? "" : (fom >= previous ? "up" : "down")});
    previous = fom;
  }
  std::printf("%s", table.to_string().c_str());

  // ---- post-mortem path: export, reload, verify ----
  std::stringstream archive;
  const std::size_t exported = core::export_store(store, archive);
  core::DataStore reloaded;
  const std::size_t imported = core::import_store(reloaded, archive);
  std::printf("\nexported %zu records to JSONL and reloaded %zu — offline "
              "series length %zu\n",
              exported, imported,
              reloaded.view().series(core::Namespace::kApplication, "md.run42")
                  .size());
  return 0;
}
