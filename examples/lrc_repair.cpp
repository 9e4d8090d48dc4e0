// LRC scenario (§III "Extension for LRCs"): locally repairable codes
// fetch only k' = k/l helpers per repaired chunk, which changes the
// whole migration/reconstruction trade-off. This example plans FastPR
// for Azure-style LRC(12, l=2, g=2) next to RS(16,12) — same storage
// overhead class — and shows both the analytic and simulated effect,
// then executes the LRC plan on the byte-level testbed.
//
//   ./examples/lrc_repair
#include <cstdio>

#include "agent/testbed.h"

#include "util/logging.h"
#include "core/fastpr.h"
#include "ec/lrc_code.h"
#include "ec/rs_code.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

using namespace fastpr;

namespace {

struct Outcome {
  double fastpr = 0;
  double reactive = 0;
  double optimum = 0;
};

Outcome plan_and_simulate(const ec::ErasureCode& code, int k_repair,
                          uint64_t seed) {
  const int num_nodes = 80;
  Rng rng(seed);
  auto layout =
      cluster::StripeLayout::random(num_nodes, code.n(), 600, rng);
  cluster::ClusterState state(
      num_nodes, 3, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  cluster::NodeId stf = 0;
  for (cluster::NodeId n = 1; n < num_nodes; ++n) {
    if (layout.load(n) > layout.load(stf)) stf = n;
  }
  state.set_health(stf, cluster::NodeHealth::kSoonToFail);

  core::PlannerOptions options;
  options.k_repair = k_repair;
  options.chunk_bytes = static_cast<double>(MB(64));
  options.code = &code;
  core::FastPrPlanner planner(layout, state, options);

  sim::SimParams sp;
  sp.chunk_bytes = options.chunk_bytes;
  sp.disk_bw = MBps(100);
  sp.net_bw = Gbps(1);
  sp.k_repair = k_repair;

  Outcome out;
  out.fastpr = sim::simulate(planner.plan_fastpr(), sp).per_chunk();
  out.reactive =
      sim::simulate(planner.plan_reconstruction_only(), sp).per_chunk();
  out.optimum = planner.cost_model().predictive_time_per_chunk();
  return out;
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  ec::RsCode rs(16, 12);
  ec::LrcCode lrc(12, /*l=*/2, /*g=*/2);  // n = 16 as well

  std::printf("codes: %s vs %s — both n=16, 12 data chunks\n",
              rs.name().c_str(), lrc.name().c_str());
  std::printf("single-chunk repair fetch: RS k=%d, LRC k'=%d\n\n",
              rs.repair_fetch_count(0), lrc.repair_fetch_count(0));

  const auto rs_out = plan_and_simulate(rs, 12, 5);
  const auto lrc_out = plan_and_simulate(lrc, 6, 5);

  std::printf("simulated repair time per chunk (s):\n");
  std::printf("  %-12s fastpr=%.3f reactive=%.3f optimum=%.3f\n",
              rs.name().c_str(), rs_out.fastpr, rs_out.reactive,
              rs_out.optimum);
  std::printf("  %-12s fastpr=%.3f reactive=%.3f optimum=%.3f\n",
              lrc.name().c_str(), lrc_out.fastpr, lrc_out.reactive,
              lrc_out.optimum);
  std::printf(
      "\nLRC locality (k'=%d) cuts FastPR repair time by %.1f%% vs "
      "RS(16,12)\n\n",
      lrc.repair_fetch_count(0),
      100.0 * (1.0 - lrc_out.fastpr / rs_out.fastpr));

  // --- Byte-level proof on the testbed. ---
  agent::TestbedOptions topts;
  topts.num_storage = 20;
  topts.num_standby = 2;
  topts.chunk_bytes = static_cast<uint64_t>(MB(1));
  topts.packet_bytes = 128 << 10;
  topts.num_stripes = 40;
  topts.seed = 77;
  agent::Testbed tb(topts, lrc);
  tb.flag_stf();
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const auto plan = planner.plan_fastpr();
  const auto report = tb.execute(plan);
  std::printf("testbed LRC repair: %d chunks in %.2f s — %s\n",
              report.repaired(), report.repair.total_seconds,
              report.success && tb.verify(report, plan)
                  ? "all chunks byte-verified"
                  : "FAILED");
  return 0;
}
