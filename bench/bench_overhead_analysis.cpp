// Overhead analysis (paper §4.3, last paragraphs; also §3.2 thrust 3).
//
// Decomposes where SOMA's cost goes at each scale of the Scaling B sweep:
// monitoring traffic (publishes, bytes), service-side queueing, client ack
// latency ("is SOMA keeping pace"), and the end-to-end runtime overhead
// relative to the unmonitored baseline.
//
// Pass a maximum scale (at least 64, e.g. "128") to truncate the sweep; it
// takes the stack flags of bench_stack.hpp too, applied to the baseline and
// the monitored runs alike.

#include "bench_stack.hpp"
#include "experiments/ddmd_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  int max_scale = 0;
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Overhead analysis",
      "cost decomposition of SOMA monitoring (Scaling B axis)", &max_scale);

  TextTable table({"app nodes", "freq (s)", "publishes", "mean ack (ms)",
                   "max ack (ms)", "svc max queue (ms)",
                   "pipeline overhead vs none"});
  for (int scale : {64, 128, 256, 512}) {
    if (scale > max_scale) break;
    auto baseline_config = DdmdExperimentConfig::scaling_b(
        scale, SomaMode::kNone, Duration::seconds(60.0));
    baseline_config.stack() = stack;
    const DdmdResult baseline = run_ddmd_experiment(baseline_config);
    for (double period : {60.0, 10.0}) {
      auto monitored_config = DdmdExperimentConfig::scaling_b(
          scale, SomaMode::kExclusive, Duration::seconds(period));
      monitored_config.stack() = stack;
      const DdmdResult monitored = run_ddmd_experiment(monitored_config);
      const double overhead =
          (monitored.pipeline_summary.mean / baseline.pipeline_summary.mean -
           1.0) *
          100.0;
      table.add_row({std::to_string(scale), bench::fmt(period, 0),
                     std::to_string(monitored.totals.soma_publishes),
                     bench::fmt(monitored.totals.mean_ack_latency_ms, 3),
                     bench::fmt(monitored.totals.max_ack_latency_ms, 3),
                     bench::fmt(monitored.totals.max_queue_delay_ms, 3),
                     bench::fmt_signed_pct(overhead)});
    }
  }
  std::printf("%s", table.to_string().c_str());

  bench::section("notes");
  std::printf(
      "  * publishes scale with nodes x frequency; the 1:1 rank:pipeline\n"
      "    provisioning keeps per-rank load flat, so ack latency stays low\n"
      "    and the service never saturates (max queue delay ~0) — SOMA\n"
      "    'keeps pace' as the paper reports for Scaling B.\n"
      "  * the runtime overhead instead comes from host-side interference:\n"
      "    the RP monitor competing with the agent scheduler, plus per-node\n"
      "    /proc scraping noise (see DESIGN.md, overhead model).\n");
  return 0;
}
