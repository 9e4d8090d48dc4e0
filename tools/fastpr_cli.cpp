// fastpr_cli — plan, simulate and explore FastPR repairs from a plain
// text cluster description.
//
// Usage:
//   fastpr_cli analyze  <spec>   # §III cost-model summary
//   fastpr_cli plan     <spec>   # build and print a FastPR repair plan
//   fastpr_cli simulate <spec>   # strategy comparison (simulated times)
//   fastpr_cli lifetime <spec>   # one simulated year of failures
//   fastpr_cli execute  <spec>   # run the plan on the in-process
//                                # testbed (real bytes, byte-verified)
//   fastpr_cli trace merge <out.json> <in.json...>
//                                # merge Chrome trace files (e.g. per-
//                                # process exports) into one timeline
//
// Flags (may appear anywhere after the command):
//   --metrics-out=<file.json>    # dump the metrics registry at exit
//   --metrics-format=json|csv|prom
//                                # format of --metrics-out (default
//                                # json; prom = Prometheus text format)
//   --trace-out=<file.json>      # enable tracing; write a Chrome
//                                # trace_event file at exit (load in
//                                # chrome://tracing or Perfetto).
//                                # `execute` writes the merged,
//                                # clock-offset-corrected multi-node
//                                # timeline (DESIGN.md §5c).
//   --flow-out=<file.json>       # execute only: per-link flow
//                                # telemetry (EWMA bandwidth, straggler
//                                # flags) from the run
//   --fault-plan <file>          # execute only: scripted fault
//                                # injection (net/fault_plan.h format;
//                                # see examples/chaos.fault).
//   --stf=<id[,id...]>           # execute only: flag these nodes as
//                                # the STF batch instead of the single
//                                # most-loaded node; two or more ids
//                                # run the joint multi-STF planner
//                                # (DESIGN.md §8) and print per-STF
//                                # progress.
//   --repair-strategy=fanin|chain|auto
//                                # reconstruction shape for plan,
//                                # simulate and execute: star fan-in
//                                # (paper default), partial-sum helper
//                                # chains (repair pipelining), or the
//                                # cost model's per-round pick.
//   --repair-budget=<MBps>       # execute only: cap cluster-wide
//                                # repair bandwidth; the coordinator
//                                # leases per-agent shares (DESIGN.md
//                                # §10) instead of letting repair use
//                                # the full NIC.
//   --slo-ms=<ms>                # execute only, with --repair-budget:
//                                # foreground p99 SLO target; enables
//                                # the AIMD budget ramp (needs
//                                # --foreground-ops for the feedback
//                                # signal).
//   --stf-deadline=<seconds>     # execute only, with --repair-budget:
//                                # predicted STF death this many
//                                # seconds after execution starts;
//                                # arms panic mode.
//   --foreground-ops=<per_sec>   # execute only: run an open-loop
//                                # foreground workload (reads/writes,
//                                # degraded reads on the STF node) at
//                                # this rate during the repair and
//                                # report its latency percentiles.
//   --topology=<racks>x<nodes>   # rack model (DESIGN.md §11): storage
//                                # nodes grouped into racks of <nodes>;
//                                # racks*nodes must equal the spec's
//                                # node count. Layouts become rack-
//                                # disjoint and the planners rack-aware.
//   --oversub=<factor>           # cross-rack oversubscription factor
//                                # (>= 1; requires --topology). The
//                                # rack uplink shares nodes*net/factor.
//
// `execute` exit codes: 0 = every chunk repaired and byte-verified;
// 3 = accounting consistent but some chunks abandoned as unrepairable
// (they are enumerated); 1 = verification or execution failure.
//
// Spec format (one `key value...` pair per line; '#' starts a comment):
//   nodes 100          # storage nodes
//   standby 3          # hot-standby spares
//   code rs 9 6        # or: code lrc 12 2 2
//   chunk_mb 64
//   disk_mbps 100
//   net_gbps 1
//   stripes 1000
//   scenario scattered # or hotstandby
//   stf auto           # or an explicit node id
//   seed 1
//   # execute-only (defaults in parentheses):
//   packet_kb 64
//   round_timeout_ms 120000
//   max_attempts 4
//   retry_backoff_ms 50
//   probe_timeout_ms 250
//   max_round_extensions 3
//   stf_failure_threshold 3
//   # lifetime-only:
//   sim_days 365
//   mtbf_days 1000
//   recall 0.95
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "agent/testbed.h"
#include "core/fastpr.h"
#include "core/repair_throttler.h"
#include "ec/lrc_code.h"
#include "ec/rs_code.h"
#include "lifetime/lifetime_sim.h"
#include "load/foreground.h"
#include "net/fault_plan.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/units.h"

using namespace fastpr;

namespace {

struct Spec {
  int nodes = 100;
  int standby = 3;
  std::shared_ptr<const ec::ErasureCode> code =
      std::make_shared<const ec::RsCode>(9, 6);
  double chunk_bytes = static_cast<double>(MB(64));
  double disk_bw = MBps(100);
  double net_bw = Gbps(1);
  int stripes = 1000;
  core::Scenario scenario = core::Scenario::kScattered;
  int stf = -1;  // -1 = auto (most loaded)
  uint64_t seed = 1;
  double sim_days = 365;
  double mtbf_days = 1000;
  double recall = 0.95;
  // Reconstruction strategy (--repair-strategy flag, not a spec key).
  core::StrategyChoice strategy = core::StrategyChoice::kFanIn;
  // Chain-hop store-and-forward cost fed to the cost model and shaped
  // transports; mirrors the agent::TestbedOptions default.
  double chain_hop_overhead_seconds = 500e-6;
  // execute-only knobs (agent::TestbedOptions defaults).
  double packet_kb = 64;
  int round_timeout_ms = 120000;
  int max_attempts = 4;
  int retry_backoff_ms = 50;
  int probe_timeout_ms = 250;
  int max_round_extensions = 3;
  int stf_failure_threshold = 3;
  // Throttling / foreground knobs (flags, not spec keys).
  double repair_budget_mbps = 0;  // 0 = unthrottled
  double slo_ms = 0;              // 0 = no AIMD target
  double stf_deadline_s = 0;      // 0 = no deadline (no panic mode)
  double foreground_ops = 0;      // 0 = no foreground workload
  // Rack model (--topology / --oversub flags). Unset = flat network.
  std::optional<net::Topology> topology;

  const net::Topology* topology_ptr() const {
    return topology.has_value() ? &*topology : nullptr;
  }
};

bool parse_spec(const std::string& path, Spec& spec, std::string& error) {
  std::ifstream in(path);
  if (!in.good()) {
    error = "cannot open spec file: " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string key;
    if (!(tokens >> key)) continue;  // blank
    auto fail = [&](const std::string& why) {
      error = path + ":" + std::to_string(lineno) + ": " + why;
      return false;
    };
    if (key == "nodes") {
      if (!(tokens >> spec.nodes)) return fail("nodes <int>");
    } else if (key == "standby") {
      if (!(tokens >> spec.standby)) return fail("standby <int>");
    } else if (key == "code") {
      std::string kind;
      if (!(tokens >> kind)) return fail("code rs|lrc ...");
      if (kind == "rs") {
        int n = 0, k = 0;
        if (!(tokens >> n >> k)) return fail("code rs <n> <k>");
        spec.code = std::make_shared<const ec::RsCode>(n, k);
      } else if (kind == "lrc") {
        int k = 0, l = 0, g = 0;
        if (!(tokens >> k >> l >> g)) return fail("code lrc <k> <l> <g>");
        spec.code = std::make_shared<const ec::LrcCode>(k, l, g);
      } else {
        return fail("unknown code kind '" + kind + "'");
      }
    } else if (key == "chunk_mb") {
      double v = 0;
      if (!(tokens >> v) || v <= 0) return fail("chunk_mb <num>");
      spec.chunk_bytes = v * static_cast<double>(kMiB);
    } else if (key == "disk_mbps") {
      double v = 0;
      if (!(tokens >> v) || v <= 0) return fail("disk_mbps <num>");
      spec.disk_bw = MBps(v);
    } else if (key == "net_gbps") {
      double v = 0;
      if (!(tokens >> v) || v <= 0) return fail("net_gbps <num>");
      spec.net_bw = Gbps(v);
    } else if (key == "stripes") {
      if (!(tokens >> spec.stripes)) return fail("stripes <int>");
    } else if (key == "scenario") {
      std::string v;
      tokens >> v;
      if (v == "scattered") {
        spec.scenario = core::Scenario::kScattered;
      } else if (v == "hotstandby") {
        spec.scenario = core::Scenario::kHotStandby;
      } else {
        return fail("scenario scattered|hotstandby");
      }
    } else if (key == "stf") {
      std::string v;
      tokens >> v;
      spec.stf = v == "auto" ? -1 : std::atoi(v.c_str());
    } else if (key == "seed") {
      if (!(tokens >> spec.seed)) return fail("seed <int>");
    } else if (key == "packet_kb") {
      double v = 0;
      if (!(tokens >> v) || v <= 0) return fail("packet_kb <num>");
      spec.packet_kb = v;
    } else if (key == "round_timeout_ms") {
      if (!(tokens >> spec.round_timeout_ms) || spec.round_timeout_ms <= 0)
        return fail("round_timeout_ms <int>");
    } else if (key == "max_attempts") {
      if (!(tokens >> spec.max_attempts) || spec.max_attempts < 1)
        return fail("max_attempts <int>=1>");
    } else if (key == "retry_backoff_ms") {
      if (!(tokens >> spec.retry_backoff_ms) || spec.retry_backoff_ms < 0)
        return fail("retry_backoff_ms <int>");
    } else if (key == "probe_timeout_ms") {
      if (!(tokens >> spec.probe_timeout_ms) || spec.probe_timeout_ms <= 0)
        return fail("probe_timeout_ms <int>");
    } else if (key == "max_round_extensions") {
      if (!(tokens >> spec.max_round_extensions) ||
          spec.max_round_extensions < 0)
        return fail("max_round_extensions <int>");
    } else if (key == "stf_failure_threshold") {
      if (!(tokens >> spec.stf_failure_threshold) ||
          spec.stf_failure_threshold < 1)
        return fail("stf_failure_threshold <int>=1>");
    } else if (key == "sim_days") {
      if (!(tokens >> spec.sim_days)) return fail("sim_days <num>");
    } else if (key == "mtbf_days") {
      if (!(tokens >> spec.mtbf_days)) return fail("mtbf_days <num>");
    } else if (key == "recall") {
      if (!(tokens >> spec.recall)) return fail("recall <num>");
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  return true;
}

struct World {
  cluster::StripeLayout layout;
  cluster::ClusterState state;
  cluster::NodeId stf;
};

World build_world(const Spec& spec) {
  Rng rng(spec.seed);
  const bool racked =
      spec.topology.has_value() && !spec.topology->is_flat();
  if (racked && spec.topology->num_nodes() != spec.nodes) {
    throw std::runtime_error("--topology " + spec.topology->to_string() +
                             " must cover exactly the spec's " +
                             std::to_string(spec.nodes) + " nodes");
  }
  World w{racked ? cluster::StripeLayout::random_racked(
                       spec.nodes, spec.code->n(), spec.stripes,
                       spec.topology->nodes_per_rack(), rng)
                 : cluster::StripeLayout::random(
                       spec.nodes, spec.code->n(), spec.stripes, rng),
          cluster::ClusterState(
              spec.nodes, spec.standby,
              cluster::BandwidthProfile{spec.disk_bw, spec.net_bw}),
          0};
  if (spec.stf >= 0) {
    w.stf = spec.stf;
  } else {
    for (cluster::NodeId n = 1; n < spec.nodes; ++n) {
      if (w.layout.load(n) > w.layout.load(w.stf)) w.stf = n;
    }
  }
  w.state.set_health(w.stf, cluster::NodeHealth::kSoonToFail);
  return w;
}

core::FastPrPlanner make_planner(const Spec& spec, World& w) {
  core::PlannerOptions opts;
  opts.scenario = spec.scenario;
  opts.k_repair = spec.code->repair_fetch_count(0);
  opts.chunk_bytes = spec.chunk_bytes;
  opts.code = spec.code.get();
  opts.packet_bytes = spec.packet_kb * static_cast<double>(kKiB);
  opts.chain_hop_overhead_seconds = spec.chain_hop_overhead_seconds;
  opts.sched.strategy = spec.strategy;
  opts.topology = spec.topology_ptr();
  return core::FastPrPlanner(w.layout, w.state, opts);
}

int cmd_analyze(const Spec& spec) {
  core::ModelParams p;
  p.num_nodes = spec.nodes;
  p.stf_chunks = std::max(
      1, spec.stripes * spec.code->n() / std::max(1, spec.nodes));
  p.chunk_bytes = spec.chunk_bytes;
  p.disk_bw = spec.disk_bw;
  p.net_bw = spec.net_bw;
  p.k_repair = spec.code->repair_fetch_count(0);
  p.hot_standby = std::max(1, spec.standby);
  p.scenario = spec.scenario;
  if (spec.topology.has_value() && !spec.topology->is_flat()) {
    p.oversubscription = spec.topology->oversubscription();
    p.cross_rack_helper_fraction = 1.0;
    p.cross_rack_migration_fraction =
        spec.scenario == core::Scenario::kHotStandby ? 1.0 : 0.0;
  }
  const core::CostModel m(p);
  std::printf("cost model (%s, %s, U=%d chunks):\n",
              spec.code->name().c_str(),
              core::to_string(spec.scenario).c_str(), p.stf_chunks);
  std::printf("  tm (migrate one chunk)            %.4f s\n", m.tm());
  std::printf("  tr (reconstruction round)         %.4f s\n",
              m.tr(m.max_parallel_groups()));
  std::printf("  optimal predictive repair (Eq.2)  %.2f s total, %.4f "
              "s/chunk\n",
              m.predictive_time(), m.predictive_time_per_chunk());
  std::printf("  reactive repair (Eq.3)            %.2f s total, %.4f "
              "s/chunk\n",
              m.reactive_time(), m.reactive_time_per_chunk());
  std::printf("  migration-only                    %.2f s total\n",
              m.migration_only_time());
  std::printf("  predictive reduction              %.1f %%\n",
              100.0 * (1.0 - m.predictive_time() / m.reactive_time()));
  return 0;
}

int cmd_plan(const Spec& spec) {
  World w = build_world(spec);
  auto planner = make_planner(spec, w);
  const auto plan = planner.plan_fastpr();
  core::validate_plan(plan, w.layout, w.state,
                      spec.code->repair_fetch_count(0), spec.code.get(),
                      spec.topology_ptr());
  std::printf("STF node %d holds %d chunks; %s\n\n", w.stf,
              w.layout.load(w.stf), plan.to_string().c_str());
  Table t({"round", "reconstructed", "migrated", "example task"});
  for (size_t i = 0; i < plan.rounds.size(); ++i) {
    const auto& round = plan.rounds[i];
    std::string example = "-";
    if (!round.reconstructions.empty()) {
      const auto& task = round.reconstructions.front();
      std::ostringstream os;
      os << "stripe " << task.chunk.stripe << " -> node " << task.dst
         << " (" << task.sources.size() << " helpers)";
      example = os.str();
    } else if (!round.migrations.empty()) {
      const auto& task = round.migrations.front();
      std::ostringstream os;
      os << "stripe " << task.chunk.stripe << " moved to node "
         << task.dst;
      example = os.str();
    }
    t.add_row({std::to_string(i + 1),
               std::to_string(round.reconstructions.size()),
               std::to_string(round.migrations.size()), example});
  }
  t.print();
  return 0;
}

int cmd_simulate(const Spec& spec) {
  World w = build_world(spec);
  auto planner = make_planner(spec, w);
  sim::SimParams sp;
  sp.chunk_bytes = spec.chunk_bytes;
  sp.disk_bw = spec.disk_bw;
  sp.net_bw = spec.net_bw;
  sp.k_repair = spec.code->repair_fetch_count(0);
  sp.hot_standby = std::max(1, spec.standby);
  sp.scenario = spec.scenario;
  sp.packet_bytes = spec.packet_kb * static_cast<double>(kKiB);
  sp.chain_hop_overhead_seconds = spec.chain_hop_overhead_seconds;
  if (spec.topology.has_value() && !spec.topology->is_flat()) {
    sp.topo_racks = spec.topology->racks();
    sp.topo_nodes_per_rack = spec.topology->nodes_per_rack();
    sp.oversubscription = spec.topology->oversubscription();
  }

  Table t({"strategy", "total (s)", "per chunk (s)", "traffic (chunks)"});
  auto row = [&](const std::string& name, const core::RepairPlan& plan) {
    const auto r = sim::simulate(plan, sp);
    t.add_row({name, Table::fmt(r.total_time, 2),
               Table::fmt(r.per_chunk(), 4),
               std::to_string(r.repair_traffic_chunks)});
  };
  row("FastPR", planner.plan_fastpr());
  row("reconstruction-only", planner.plan_reconstruction_only());
  row("migration-only", planner.plan_migration_only());
  std::printf("STF node %d, %d chunks, %s repair:\n", w.stf,
              w.layout.load(w.stf),
              core::to_string(spec.scenario).c_str());
  t.print();
  std::printf("analytic optimum: %.4f s/chunk\n",
              planner.cost_model().predictive_time_per_chunk());
  return 0;
}

int cmd_lifetime(const Spec& spec) {
  lifetime::LifetimeConfig cfg;
  cfg.num_nodes = spec.nodes;
  cfg.code = spec.code;
  cfg.num_stripes = spec.stripes;
  cfg.chunk_bytes = spec.chunk_bytes;
  cfg.disk_bw = spec.disk_bw;
  cfg.net_bw = spec.net_bw;
  cfg.sim_days = spec.sim_days;
  cfg.node_mtbf_days = spec.mtbf_days;
  cfg.prediction_recall = spec.recall;
  cfg.seed = spec.seed;
  const auto report = lifetime::simulate_lifetime(cfg);
  std::printf("%.0f simulated days, recall %.2f:\n", spec.sim_days,
              spec.recall);
  std::printf("  failures                 %d (%d predicted, %d repaired "
              "in time)\n",
              report.failures, report.predicted,
              report.completed_in_time);
  std::printf("  false alarms repaired    %d\n", report.false_alarms);
  std::printf("  vulnerability            %.1f s total\n",
              report.vulnerability_seconds);
  std::printf("  degraded stripe-hours    %.2f\n",
              report.degraded_stripe_seconds / 3600.0);
  std::printf("  repair traffic           %ld chunks\n",
              report.repair_traffic_chunks);
  std::printf("  data-loss stripes        %d\n", report.data_loss_stripes);
  return 0;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << content << "\n";
  return out.good();
}

int cmd_execute(const Spec& spec, const std::string& fault_plan_path,
                const std::vector<int>& stf_batch,
                const std::string& flow_out,
                std::vector<std::pair<int, int64_t>>* clock_offsets) {
  agent::TestbedOptions opts;
  opts.num_storage = spec.nodes;
  opts.num_standby = spec.standby;
  opts.disk_bytes_per_sec = spec.disk_bw;
  opts.net_bytes_per_sec = spec.net_bw;
  opts.chunk_bytes = static_cast<uint64_t>(spec.chunk_bytes);
  opts.packet_bytes = static_cast<uint64_t>(spec.packet_kb *
                                            static_cast<double>(kKiB));
  opts.num_stripes = spec.stripes;
  opts.seed = spec.seed;
  opts.repair_strategy = spec.strategy;
  opts.chain_hop_overhead_seconds = spec.chain_hop_overhead_seconds;
  opts.round_timeout = std::chrono::milliseconds(spec.round_timeout_ms);
  opts.max_attempts = spec.max_attempts;
  opts.retry_backoff = std::chrono::milliseconds(spec.retry_backoff_ms);
  opts.probe_timeout = std::chrono::milliseconds(spec.probe_timeout_ms);
  opts.max_round_extensions = spec.max_round_extensions;
  opts.stf_failure_threshold = spec.stf_failure_threshold;
  opts.topology = spec.topology;
  if (spec.repair_budget_mbps > 0) {
    core::ThrottlerOptions throttle;
    throttle.total_bytes_per_sec = MBps(spec.repair_budget_mbps);
    throttle.slo_p99_seconds = spec.slo_ms / 1000.0;
    throttle.adaptive = spec.slo_ms > 0;
    opts.throttle = throttle;
    opts.stf_deadline_seconds = spec.stf_deadline_s;
  }
  if (!fault_plan_path.empty()) {
    std::ifstream in(fault_plan_path);
    if (!in.good()) {
      std::fprintf(stderr, "error: cannot open fault plan %s\n",
                   fault_plan_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    opts.fault_plan = net::FaultPlan::parse(text.str());
  }

  agent::Testbed tb(opts, *spec.code);
  std::vector<cluster::NodeId> batch;
  if (stf_batch.empty()) {
    batch.push_back(tb.flag_stf());
  } else {
    batch = tb.flag_stf_nodes(
        std::vector<cluster::NodeId>(stf_batch.begin(), stf_batch.end()));
  }

  const core::RepairPlan plan =
      tb.make_planner(spec.scenario).plan_fastpr();
  for (const cluster::NodeId stf : batch) {
    std::printf("STF node %d holds %d chunks\n", stf,
                tb.layout().load(stf));
  }
  std::printf("%s\n", plan.to_string().c_str());

  // Optional open-loop foreground workload running beside the repair;
  // its per-node pressure closes the throttler's AIMD loop.
  std::unique_ptr<load::ForegroundWorkload> foreground;
  if (spec.foreground_ops > 0) {
    load::WorkloadOptions wopts;
    wopts.ops_per_sec = spec.foreground_ops;
    wopts.seed = spec.seed;
    foreground =
        std::make_unique<load::ForegroundWorkload>(tb, *spec.code, wopts);
    for (const cluster::NodeId stf : batch) foreground->set_degraded(stf);
    tb.set_pressure_source(foreground.get());
    foreground->start();
  }

  const auto report = tb.execute(plan);
  if (foreground) foreground->stop();
  // A degraded-read decode mismatch is a verification failure too.
  const bool verified =
      tb.verify(report, plan) &&
      (foreground == nullptr || foreground->stats().verify_failures == 0);
  *clock_offsets = tb.clock_offsets();
  if (!flow_out.empty() &&
      !write_file(flow_out, "{\"links\":" +
                                telemetry::links_to_json(report.repair.links) +
                                "}")) {
    return 1;
  }

  std::printf("\nexecution: %s in %.3f s\n",
              report.success ? "complete" : "incomplete",
              report.repair.total_seconds);
  std::printf("  repaired                 %d of %d chunks\n",
              static_cast<int>(report.completions.size()),
              plan.total_repaired());
  std::printf("  fallback reconstructions %d\n",
              report.fallback_reconstructions);
  std::printf("  retries                  %d\n", report.retries);
  std::printf("  round extensions         %d\n", report.round_extensions);
  std::printf("  replans                  %d\n", report.replans);
  std::printf("  degraded to reactive     %s\n",
              report.degraded_to_reactive
                  ? ("yes (round " +
                     std::to_string(report.repair.degraded_at_round) + ")")
                        .c_str()
                  : "no");
  for (const auto& progress : report.repair.per_stf) {
    std::printf("  stf %-4d                 %d planned, %d migrated, "
                "%d reconstructed, %d unrepaired%s\n",
                progress.stf, progress.planned, progress.migrated,
                progress.reconstructed, progress.unrepaired,
                progress.died_at_round > 0
                    ? (" (died round " +
                       std::to_string(progress.died_at_round) + ")")
                          .c_str()
                    : "");
  }
  if (!report.failed_nodes.empty()) {
    std::string nodes;
    for (const auto n : report.failed_nodes) {
      if (!nodes.empty()) nodes += " ";
      nodes += std::to_string(n);
    }
    std::printf("  nodes declared failed    %s\n", nodes.c_str());
  }
  for (const auto& chunk : report.unrepaired) {
    std::printf("  UNREPAIRED stripe %d index %d\n", chunk.stripe,
                chunk.index);
  }
  for (const auto& err : report.errors) {
    std::printf("  error: %s\n", err.c_str());
  }
  if (tb.throttler() != nullptr) {
    const auto ts = tb.throttler()->stats();
    // Display conversion, not a configuration boundary.
    std::printf("  repair budget            %.1f MB/s final%s\n",
                ts.budget_bytes_per_sec / 1e6,  // fastpr-lint: allow(units)
                ts.panic ? " (PANIC: deadline overrode SLO)" : "");
    std::printf("  leases                   %lld granted, %lld expired, "
                "%lld SLO breaches\n",
                static_cast<long long>(ts.leases_granted),
                static_cast<long long>(ts.leases_expired),
                static_cast<long long>(ts.slo_breaches));
  }
  if (foreground) {
    const auto fs = foreground->stats();
    std::printf("  foreground               %lld reads (%lld degraded), "
                "%lld writes, %lld failed\n",
                static_cast<long long>(fs.reads),
                static_cast<long long>(fs.degraded_reads),
                static_cast<long long>(fs.writes),
                static_cast<long long>(fs.failed_ops));
    std::printf("  foreground latency       p50 %.1f ms, p99 %.1f ms, "
                "p999 %.1f ms at %.0f op/s\n",
                fs.p50_seconds * 1e3, fs.p99_seconds * 1e3,
                fs.p999_seconds * 1e3, fs.achieved_ops_per_sec);
    if (fs.verify_failures > 0) {
      std::printf("  FOREGROUND VERIFY FAILURES %lld\n",
                  static_cast<long long>(fs.verify_failures));
    }
  }
  std::printf("  byte verification        %s\n",
              verified ? "PASS" : "FAIL");
  if (!verified) return 1;
  return report.success ? 0 : 3;
}

int usage() {
  std::fprintf(stderr,
               "usage: fastpr_cli analyze|plan|simulate|lifetime|execute "
               "<spec-file> [--metrics-out=<file.json>] "
               "[--metrics-format=json|csv|prom] "
               "[--trace-out=<file.json>] [--flow-out=<file.json>] "
               "[--fault-plan <file>] [--stf=<id[,id...]>] "
               "[--repair-strategy=fanin|chain|auto] "
               "[--repair-budget=<MBps>] [--slo-ms=<ms>] "
               "[--stf-deadline=<s>] [--foreground-ops=<per_sec>] "
               "[--topology=<racks>x<nodes>] [--oversub=<factor>]\n"
               "       fastpr_cli trace merge <out.json> <in.json...>\n");
  return 2;
}

/// `trace merge <out> <in...>`: splices the traceEvents arrays of the
/// inputs (each a {"traceEvents":[...]} file as written by --trace-out)
/// into one Chrome trace. Purely textual — events pass through verbatim.
int cmd_trace_merge(const std::vector<const char*>& positional) {
  if (positional.size() < 4) return usage();
  const std::string out_path = positional[2];
  std::string merged;
  for (size_t i = 3; i < positional.size(); ++i) {
    std::ifstream in(positional[i]);
    if (!in.good()) {
      std::fprintf(stderr, "error: cannot open trace %s\n", positional[i]);
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    // Accept both the bare {"traceEvents":[...]} form and the
    // {"displayTimeUnit":"ms","traceEvents":[...]} form that
    // events_to_chrome_json / --trace-out write.
    const std::string key = "\"traceEvents\":[";
    const auto start = s.find(key);
    const auto end = s.rfind("]}");
    if (start == std::string::npos || end == std::string::npos ||
        end < start + key.size()) {
      std::fprintf(stderr, "error: %s is not a Chrome trace file\n",
                   positional[i]);
      return 1;
    }
    const std::string body =
        s.substr(start + key.size(), end - (start + key.size()));
    if (body.empty()) continue;
    if (!merged.empty()) merged += ",";
    merged += body;
  }
  return write_file(out_path,
                    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" +
                        merged + "]}")
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  std::string metrics_format = "json";
  std::string trace_out;
  std::string flow_out;
  std::string fault_plan_path;
  core::StrategyChoice strategy = core::StrategyChoice::kFanIn;
  std::vector<int> stf_batch;
  double repair_budget_mbps = 0;
  double slo_ms = 0;
  double stf_deadline_s = 0;
  double foreground_ops = 0;
  std::string topology_spec;
  double oversub_factor = net::Oversub(1.0);
  // Parses `--flag=<positive number>` into `out`; 0 and negatives are
  // rejected (omit the flag to disable the feature).
  auto parse_positive = [&](const std::string& arg, const char* flag,
                            double* out) {
    const std::string v = arg.substr(std::strlen(flag));
    char* end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (v.empty() || end == nullptr || *end != '\0' || parsed <= 0) {
      std::fprintf(stderr, "error: bad %s value '%s'\n", flag, v.c_str());
      return false;
    }
    *out = parsed;
    return true;
  };
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--stf=", 0) == 0) {
      std::istringstream ids(arg.substr(std::strlen("--stf=")));
      std::string token;
      while (std::getline(ids, token, ',')) {
        char* end = nullptr;
        const long id = std::strtol(token.c_str(), &end, 10);
        if (token.empty() || end == nullptr || *end != '\0' || id < 0) {
          std::fprintf(stderr, "error: bad --stf id '%s'\n",
                       token.c_str());
          return usage();
        }
        stf_batch.push_back(static_cast<int>(id));
      }
      if (stf_batch.empty()) return usage();
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
      if (metrics_out.empty()) return usage();
    } else if (arg.rfind("--metrics-format=", 0) == 0) {
      metrics_format = arg.substr(std::strlen("--metrics-format="));
      if (metrics_format != "json" && metrics_format != "csv" &&
          metrics_format != "prom") {
        std::fprintf(stderr, "error: bad --metrics-format '%s'\n",
                     metrics_format.c_str());
        return usage();
      }
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
      if (trace_out.empty()) return usage();
    } else if (arg.rfind("--flow-out=", 0) == 0) {
      flow_out = arg.substr(std::strlen("--flow-out="));
      if (flow_out.empty()) return usage();
    } else if (arg.rfind("--repair-strategy=", 0) == 0) {
      const std::string v = arg.substr(std::strlen("--repair-strategy="));
      if (v == "fanin") {
        strategy = core::StrategyChoice::kFanIn;
      } else if (v == "chain") {
        strategy = core::StrategyChoice::kChain;
      } else if (v == "auto") {
        strategy = core::StrategyChoice::kAuto;
      } else {
        std::fprintf(stderr, "error: bad --repair-strategy '%s'\n",
                     v.c_str());
        return usage();
      }
    } else if (arg.rfind("--repair-budget=", 0) == 0) {
      if (!parse_positive(arg, "--repair-budget=", &repair_budget_mbps))
        return usage();
    } else if (arg.rfind("--slo-ms=", 0) == 0) {
      if (!parse_positive(arg, "--slo-ms=", &slo_ms)) return usage();
    } else if (arg.rfind("--stf-deadline=", 0) == 0) {
      if (!parse_positive(arg, "--stf-deadline=", &stf_deadline_s))
        return usage();
    } else if (arg.rfind("--foreground-ops=", 0) == 0) {
      if (!parse_positive(arg, "--foreground-ops=", &foreground_ops))
        return usage();
    } else if (arg.rfind("--topology=", 0) == 0) {
      topology_spec = arg.substr(std::strlen("--topology="));
      if (topology_spec.empty()) return usage();
    } else if (arg.rfind("--oversub=", 0) == 0) {
      if (!parse_positive(arg, "--oversub=", &oversub_factor))
        return usage();
    } else if (arg.rfind("--fault-plan=", 0) == 0) {
      fault_plan_path = arg.substr(std::strlen("--fault-plan="));
      if (fault_plan_path.empty()) return usage();
    } else if (arg == "--fault-plan") {
      if (i + 1 >= argc) return usage();
      fault_plan_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return usage();
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() >= 2 && std::strcmp(positional[0], "trace") == 0 &&
      std::strcmp(positional[1], "merge") == 0) {
    return cmd_trace_merge(positional);
  }
  if (positional.size() != 2) return usage();
  const char* command = positional[0];
  const char* spec_path = positional[1];

  set_log_level(LogLevel::kWarn);
  if (!trace_out.empty()) {
    telemetry::TraceLog::global().set_enabled(true);
  }
  Spec spec;
  std::string error;
  if (!parse_spec(spec_path, spec, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  spec.strategy = strategy;
  spec.repair_budget_mbps = repair_budget_mbps;
  spec.slo_ms = slo_ms;
  spec.stf_deadline_s = stf_deadline_s;
  spec.foreground_ops = foreground_ops;
  if (!topology_spec.empty()) {
    try {
      spec.topology = net::Topology::parse(topology_spec,
                                           net::Oversub(oversub_factor));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: bad --topology/--oversub: %s\n",
                   e.what());
      return usage();
    }
  } else if (oversub_factor != 1.0) {
    std::fprintf(stderr, "error: --oversub requires --topology\n");
    return usage();
  }
  std::vector<std::pair<int, int64_t>> clock_offsets;
  int rc = 2;
  try {
    if (std::strcmp(command, "analyze") == 0) {
      rc = cmd_analyze(spec);
    } else if (std::strcmp(command, "plan") == 0) {
      rc = cmd_plan(spec);
    } else if (std::strcmp(command, "simulate") == 0) {
      rc = cmd_simulate(spec);
    } else if (std::strcmp(command, "lifetime") == 0) {
      rc = cmd_lifetime(spec);
    } else if (std::strcmp(command, "execute") == 0) {
      rc = cmd_execute(spec, fault_plan_path, stf_batch, flow_out,
                       &clock_offsets);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (!metrics_out.empty()) {
    const auto snap = telemetry::MetricsRegistry::global().snapshot();
    const std::string rendered = metrics_format == "csv"
                                     ? snap.to_csv()
                                     : metrics_format == "prom"
                                           ? snap.to_prometheus()
                                           : snap.to_json();
    if (!write_file(metrics_out, rendered)) return 1;
  }
  if (!trace_out.empty()) {
    // `execute` learned per-node clock offsets from its probe traffic;
    // export the merged timeline offset-corrected (a no-op otherwise).
    const std::string trace_json =
        clock_offsets.empty()
            ? telemetry::TraceLog::global().to_chrome_json()
            : telemetry::events_to_chrome_json(
                  telemetry::TraceLog::global().snapshot(), clock_offsets);
    if (!write_file(trace_out, trace_json)) return 1;
  }
  return rc;
}
