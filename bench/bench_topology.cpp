// Topology-aware repair (DESIGN.md §11): rack-aware vs flat planning
// under cross-rack oversubscription, plus mid-repair bandwidth
// replanning under a flapping link.
//
// No paper baseline exists for any table here — FastPR (DSN'19) models
// a flat network — so every number is this repo's extension, measured
// against the flat planner on the SAME rack-disjoint layout
// (EXPERIMENTS.md records the tables with that caveat).
//
//  (a)/(b) simulation sweeps: the paper's configuration scaled to
//    M = 48 nodes arranged 12 racks x 4, RS(9,6), 64 MB chunks,
//    bd = 100 MB/s, bn = 1 Gb/s. Both planners run over one
//    rack-disjoint layout; the racked simulator charges each round for
//    its busiest shared rack link (nodes/rack * bn / oversubscription).
//    Scattered repair is ASSERTED: the rack-aware plan must beat the
//    flat plan at every oversubscription >= 2 (and tie at 1.0, where
//    the rack terms vanish by construction). Hot-standby is reported
//    unasserted — every stream funnels into the spares' overflow rack
//    for both planners, so rack-awareness has little room there.
//  (c) bandwidth flapping, real testbed: a 12x2 racked cluster with two
//    helper nodes slowed 96x by the fault plan's `slow` verb. The
//    coordinator's drift trigger (FlowMonitor EWMA vs plan rate) fires
//    and replans the remaining rounds with the stragglers
//    deprioritized; ASSERTED to repair strictly faster than the
//    identical run with replanning disabled, both byte-verified.
//
// Both assertions land in the sidecar's "assertions" section as well as
// the exit code. `--smoke` runs correctness only (flat-reduction
// equality, a racked byte-verified execute, and trigger engagement) on
// a tiny configuration; CI runs it in the release job. Timings must
// come from a release build with the machine otherwise idle.
#include "bench_common.h"

#include <cstring>

#include "net/fault_plan.h"
#include "net/topology.h"
#include "sim/simulator.h"

using namespace fastpr;

namespace {

constexpr int kRacks = 12;
constexpr int kNodesPerRack = 4;
constexpr int kStorage = kRacks * kNodesPerRack;

struct SweepPoint {
  double flat_total = 0;
  double rack_total = 0;
  int stf_chunks = 0;
};

/// One rack-disjoint layout, planned twice (flat planner vs rack-aware
/// planner), both replayed through the racked simulator.
SweepPoint run_sweep_point(core::Scenario scenario, double oversub,
                          int num_stripes, uint64_t seed) {
  ec::RsCode code(9, 6);
  Rng rng(seed);
  const auto layout = cluster::StripeLayout::random_racked(
      kStorage, code.n(), num_stripes, kNodesPerRack, rng);
  cluster::ClusterState state(
      kStorage, 3, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  cluster::NodeId stf = 0;
  for (cluster::NodeId n = 1; n < kStorage; ++n) {
    if (layout.load(n) > layout.load(stf)) stf = n;
  }
  state.set_health(stf, cluster::NodeHealth::kSoonToFail);
  const net::Topology topo(kRacks, kNodesPerRack, net::Oversub(oversub));

  const auto plan_with = [&](const net::Topology* topology) {
    core::PlannerOptions opts;
    opts.scenario = scenario;
    opts.k_repair = code.repair_fetch_count(0);
    opts.chunk_bytes = static_cast<double>(MB(64));
    opts.code = &code;
    opts.topology = topology;
    core::FastPrPlanner planner(layout, state, opts);
    return planner.plan_fastpr();
  };
  const auto simulate_with = [&](const core::RepairPlan& plan) {
    sim::SimParams sp;
    sp.chunk_bytes = static_cast<double>(MB(64));
    sp.disk_bw = MBps(100);
    sp.net_bw = Gbps(1);
    sp.k_repair = code.repair_fetch_count(0);
    sp.hot_standby = 3;
    sp.scenario = scenario;
    sp.topo_racks = kRacks;
    sp.topo_nodes_per_rack = kNodesPerRack;
    sp.oversubscription = oversub;
    return sim::simulate(plan, sp);
  };

  const auto flat_plan = plan_with(nullptr);
  const auto rack_plan = plan_with(&topo);
  // The rack-aware plan must satisfy the failure-domain invariant.
  core::validate_plan(rack_plan, layout, state, code.repair_fetch_count(0),
                      &code, &topo);

  SweepPoint out;
  out.flat_total = simulate_with(flat_plan).total_time;
  out.rack_total = simulate_with(rack_plan).total_time;
  out.stf_chunks = layout.load(stf);
  return out;
}

struct FlapRun {
  bool ok = false;
  double total_seconds = 0;
  int bandwidth_replans = 0;
  int rounds = 0;
};

/// The flapping scenario: two frequently-used helper nodes slowed 96x.
/// Each agent's 4 sender workers overlap the slow verb's sleeps, so a
/// slowed link's effective rate is ~4*bn/factor against an expected
/// pace of bn/k — measured/expected lands near 4*k/96 = 0.25, well
/// under the 0.5 degrade threshold (and far enough that the penalty
/// dominates round time, not just the drift signal).
FlapRun run_flap(bool replanning, uint64_t chunk_bytes, int num_stripes,
                 uint64_t seed) {
  ec::RsCode code(9, 6);
  agent::TestbedOptions opts;
  opts.num_storage = 24;
  opts.num_standby = 3;
  opts.disk_bytes_per_sec = MBps(142) / 4;
  opts.net_bytes_per_sec = Gbps(5) / 4;
  opts.chunk_bytes = chunk_bytes;
  opts.packet_bytes = std::min<uint64_t>(chunk_bytes, 128 * kKiB);
  opts.num_stripes = num_stripes;
  opts.seed = seed;
  opts.round_timeout = std::chrono::minutes(10);
  opts.topology = net::Topology(12, 2, net::Oversub(2.0));
  if (replanning) {
    opts.bandwidth_replan.enabled = true;
    opts.bandwidth_replan.degrade_ratio = 0.5;
    opts.bandwidth_replan.min_breach_rounds = 1;
    opts.bandwidth_replan.max_replans = 1;
  }

  // Pre-derive the layout (same seed, same generator) to aim the slow
  // verb at the two most-loaded non-STF nodes — the helpers nearly
  // every round would otherwise read from.
  Rng rng(seed);
  const auto preview = cluster::StripeLayout::random_racked(
      opts.num_storage, code.n(), num_stripes, 2, rng);
  std::vector<cluster::NodeId> by_load(
      static_cast<size_t>(opts.num_storage));
  for (cluster::NodeId n = 0; n < opts.num_storage; ++n) {
    by_load[static_cast<size_t>(n)] = n;
  }
  std::stable_sort(by_load.begin(), by_load.end(),
                   [&](cluster::NodeId a, cluster::NodeId b) {
                     return preview.load(a) > preview.load(b);
                   });
  net::FaultPlan faults;
  faults.slow.push_back({by_load[1], 96.0, 0});
  faults.slow.push_back({by_load[2], 96.0, 0});
  opts.fault_plan = faults;

  agent::Testbed tb(opts, code);
  tb.flag_stf();  // == by_load[0]: slow verbs never hit the STF node
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_fastpr();
  const auto report = tb.execute(plan);

  FlapRun out;
  out.ok = report.success && tb.verify(report, plan);
  if (!out.ok) {
    LOG_ERROR("flapping run failed ("
              << (report.errors.empty() ? "verify" : report.errors[0])
              << ")");
    return out;
  }
  out.total_seconds = report.total_seconds;
  out.bandwidth_replans = report.bandwidth_replans;
  out.rounds = static_cast<int>(report.round_seconds.size());
  return out;
}

int run_smoke() {
  // Flat reduction: oversubscription 1.0 must leave the rack-aware
  // plan's simulated time bit-identical to the flat plan's.
  const auto flat = run_sweep_point(core::Scenario::kScattered,
                                    /*oversub=*/1.0, /*num_stripes=*/120,
                                    /*seed=*/3);
  if (flat.rack_total != flat.flat_total) {
    std::printf("bench_topology --smoke: FAIL (oversub 1.0 not "
                "bit-identical: rack %.9f vs flat %.9f)\n",
                flat.rack_total, flat.flat_total);
    return 1;
  }

  // Racked testbed execute, byte-verified.
  {
    ec::RsCode code(9, 6);
    agent::TestbedOptions opts;
    opts.num_storage = 24;
    opts.num_standby = 2;
    opts.disk_bytes_per_sec = 0;  // unthrottled: smoke checks bytes only
    opts.net_bytes_per_sec = 0;
    opts.chunk_bytes = 64 * kKiB;
    opts.packet_bytes = 16 * kKiB;
    opts.num_stripes = 30;
    opts.seed = 7;
    opts.round_timeout = std::chrono::milliseconds(30000);
    opts.topology = net::Topology(12, 2, net::Oversub(4.0));
    agent::Testbed tb(opts, code);
    tb.flag_stf();
    const auto plan =
        tb.make_planner(core::Scenario::kScattered).plan_fastpr();
    core::validate_plan(plan, tb.layout(), tb.cluster(),
                        code.repair_fetch_count(0), &code, tb.topology());
    const auto report = tb.execute(plan);
    if (!report.success || !tb.verify(report, plan)) {
      std::printf("bench_topology --smoke: FAIL (racked execute)\n");
      return 1;
    }
  }

#if FASTPR_TELEMETRY_ENABLED
  // Trigger engagement: the flapping run must fire exactly one
  // bandwidth replan and still byte-verify. (The EWMA drift signal
  // needs flow telemetry; nothing to engage in a telemetry-off build.)
  const auto flap = run_flap(/*replanning=*/true,
                             /*chunk_bytes=*/256 * kKiB,
                             /*num_stripes=*/80, /*seed=*/11);
  if (!flap.ok || flap.bandwidth_replans != 1) {
    std::printf("bench_topology --smoke: FAIL (flapping run: ok=%d "
                "bandwidth_replans=%d)\n",
                flap.ok ? 1 : 0, flap.bandwidth_replans);
    return 1;
  }
#endif
  std::printf("bench_topology --smoke: PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return run_smoke();
  }

  std::printf("=== Topology-aware repair: oversubscription sweeps ===\n");
  std::printf(
      "simulation, M=48 nodes as 12 racks x 4, RS(9,6), 64 MB chunks, "
      "bd=100 MB/s, bn=1 Gb/s; both planners share one rack-disjoint "
      "layout\nno paper baseline: FastPR models a flat network; the "
      "flat planner on the same layout is the reference\n\n");

  bench::FigureEmitter fig("bench_topology");
  fig.add_config("topology", "12x4 (M=48)");
  fig.add_config("code", "RS(9,6)");
  fig.add_config("chunk", "64MB");
  fig.add_config("bandwidths", "100 MB/s disk, 1 Gb/s NIC");
  fig.add_config("baseline",
                 "flat planner on the same rack-disjoint layout "
                 "(no paper baseline exists)");
  fig.add_config("seed", "1");

  bool ok = true;
  std::vector<std::string> violations;

  fig.begin_section("(a) scattered repair vs oversubscription",
                    {"oversub", "flat total (s)", "rack-aware total (s)",
                     "saving"});
  for (const double oversub : {1.0, 2.0, 4.0, 8.0}) {
    const auto point = run_sweep_point(core::Scenario::kScattered,
                                       oversub, /*num_stripes=*/1000,
                                       /*seed=*/1);
    fig.add_row({Table::fmt(oversub, 1), Table::fmt(point.flat_total, 2),
                 Table::fmt(point.rack_total, 2),
                 bench::pct(point.rack_total, point.flat_total)});
    if (oversub >= 2.0 && point.rack_total >= point.flat_total) {
      violations.push_back(
          "scattered oversub " + Table::fmt(oversub, 1) +
          ": rack-aware " + Table::fmt(point.rack_total, 2) +
          "s does not beat flat " + Table::fmt(point.flat_total, 2) + "s");
    }
    if (oversub == 1.0 && point.rack_total != point.flat_total) {
      violations.push_back("scattered oversub 1.0: rack-aware " +
                           Table::fmt(point.rack_total, 4) +
                           "s != flat " + Table::fmt(point.flat_total, 4) +
                           "s (flat reduction broken)");
    }
  }
  fig.end_section();

  fig.begin_section(
      "(b) hot-standby repair vs oversubscription (unasserted)",
      {"oversub", "flat total (s)", "rack-aware total (s)", "saving"});
  for (const double oversub : {1.0, 2.0, 4.0, 8.0}) {
    const auto point = run_sweep_point(core::Scenario::kHotStandby,
                                       oversub, /*num_stripes=*/1000,
                                       /*seed=*/1);
    fig.add_row({Table::fmt(oversub, 1), Table::fmt(point.flat_total, 2),
                 Table::fmt(point.rack_total, 2),
                 bench::pct(point.rack_total, point.flat_total)});
  }
  fig.end_section();

  std::printf("=== Bandwidth flapping: replan vs no-replan ===\n");
  std::printf(
      "testbed, 24 storage nodes as 12 racks x 2 (oversub 2.0), "
      "RS(9,6), 1 MB chunks, bandwidths = EC2/4; two busiest helper "
      "nodes slowed 96x from the start\n\n");
  fig.begin_section("(c) flapping cross-rack links, scattered",
                    {"run", "total (s)", "rounds", "bandwidth replans"});
  const auto replan = run_flap(/*replanning=*/true,
                               /*chunk_bytes=*/MB(1),
                               /*num_stripes=*/150, /*seed=*/11);
  const auto control = run_flap(/*replanning=*/false,
                                /*chunk_bytes=*/MB(1),
                                /*num_stripes=*/150, /*seed=*/11);
  ok = ok && replan.ok && control.ok;
  fig.add_row({"replan", Table::fmt(replan.total_seconds, 2),
               std::to_string(replan.rounds),
               std::to_string(replan.bandwidth_replans)});
  fig.add_row({"no-replan", Table::fmt(control.total_seconds, 2),
               std::to_string(control.rounds),
               std::to_string(control.bandwidth_replans)});
  fig.end_section();
#if FASTPR_TELEMETRY_ENABLED
  if (ok && replan.bandwidth_replans != 1) {
    violations.push_back("flapping: expected exactly 1 bandwidth replan, "
                         "got " + std::to_string(replan.bandwidth_replans));
  }
  if (ok && control.bandwidth_replans != 0) {
    violations.push_back("flapping control: trigger disabled but " +
                         std::to_string(control.bandwidth_replans) +
                         " replans reported");
  }
  if (ok && replan.total_seconds >= control.total_seconds) {
    violations.push_back(
        "flapping: replan run " + Table::fmt(replan.total_seconds, 2) +
        "s does not beat no-replan " +
        Table::fmt(control.total_seconds, 2) + "s");
  }
#else
  std::printf("flapping assertions skipped: telemetry off, no EWMA "
              "drift signal\n");
#endif

  // The assertions themselves go to the sidecar so figures stay
  // diffable against what the bench enforced.
  fig.begin_section("assertions",
                    {"assertion", "result"});
  fig.add_row({"rack-aware beats flat at oversub >= 2 (scattered)",
               violations.empty() ? "pass" : "see violations"});
  fig.add_row({"bandwidth replan beats no-replan under flapping",
#if FASTPR_TELEMETRY_ENABLED
               violations.empty() ? "pass" : "see violations"
#else
               "skipped (telemetry off)"
#endif
  });
  fig.end_section();

  for (const auto& v : violations) std::printf("VIOLATION: %s\n", v.c_str());
  fig.write_sidecar();
  if (!ok) {
    std::printf("bench_topology: FAIL (verification)\n");
    return 1;
  }
  if (!violations.empty()) {
    std::printf("bench_topology: FAIL (%zu violation(s))\n",
                violations.size());
    return 1;
  }
  return 0;
}
