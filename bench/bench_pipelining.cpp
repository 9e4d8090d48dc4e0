// Packet-level repair pipelining (partial-sum helper chains) vs star
// fan-in, on the scaled testbed (scattered repair, reconstruction-only
// plans so the chain path carries every repaired chunk).
//
// Two sweeps, both against the measured single-transfer bound (the
// per-chunk time of a migration-only run — read, one network transfer,
// write — which is the floor any reconstruction strategy can approach).
// Reconstruction plans are re-rounded to one task per round so a round
// duration is one isolated chain / fan-in star, not several co-scheduled
// groups contending for shared disks:
//  * packet size at k=6: the fan-in/chain crossover. Small packets pay
//    the per-forward store-and-forward overhead ceil(c/p)·o on every
//    hop and lose to fan-in; large packets amortize it and approach the
//    bound. The `auto` column is the cost model's per-round pick, which
//    must land on the measured-faster side at both extremes.
//  * k at the paper's packet size (256 KiB scaled): fan-in degrades
//    linearly with k (k streams funnel into one NIC) while the chain
//    stays within 1.35x of the single-transfer bound — enforced, the
//    bench exits nonzero on violation.
//
// `--smoke` runs a tiny unthrottled configuration and only checks
// correctness (byte verification + the chain path actually engaging);
// CI runs it in the release job. Timings must come from a release
// build with the machine otherwise idle (never from sanitizer builds).
#include "bench_common.h"

#include <cstring>

#include "gf/gf256.h"

using namespace fastpr;

namespace {

struct ReconRun {
  bool ok = false;
  double per_chunk = 0;
  /// Mean duration of one isolated reconstruction round (exactly one
  /// chain or one fan-in star per round — see run_recon).
  double mean_round = 0;
};

ReconRun run_recon(const agent::TestbedOptions& base,
                   const ec::ErasureCode& code,
                   core::StrategyChoice strategy) {
  auto opts = base;
  opts.repair_strategy = strategy;
  agent::Testbed tb(opts, code);
  tb.flag_stf();
  auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_reconstruction_only();
  // Isolate the transfer under test: re-round the plan so each round
  // carries exactly one reconstruction. Planner rounds pack multiple
  // disjoint groups, and at small k those groups reuse nodes as
  // helper-in-one / destination-in-another, so a packed round measures
  // shared-disk contention rather than the chain-vs-single-transfer
  // physics the bench is after. A singleton subset of a valid round is
  // still valid.
  core::RepairPlan isolated;
  isolated.stf_nodes = plan.stf_nodes;
  for (auto& round : plan.rounds) {
    for (auto& task : round.reconstructions) {
      core::RepairRound single;
      single.strategy = round.strategy;
      single.reconstructions.push_back(std::move(task));
      isolated.rounds.push_back(std::move(single));
    }
  }
  const auto report = tb.execute(isolated);
  ReconRun out;
  out.ok = report.success && tb.verify(isolated);
  if (!out.ok) {
    LOG_ERROR("reconstruction run failed ("
              << (report.errors.empty() ? "verify" : report.errors[0])
              << ")");
    return out;
  }
  out.per_chunk = report.per_chunk();
  double sum = 0;
  int rounds = 0;
  for (const auto& round : report.repair.rounds) {
    if (round.cr == 0) continue;
    sum += round.duration_seconds;
    ++rounds;
  }
  out.mean_round = rounds > 0 ? sum / rounds : 0;
  return out;
}

/// Measured single-transfer bound: migration per-chunk time (the STF
/// disk serializes the reads, so per_chunk() is exactly one
/// read + transfer + write).
double run_single_transfer(const agent::TestbedOptions& base,
                           const ec::ErasureCode& code, bool& ok) {
  agent::Testbed tb(base, code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_migration_only();
  const auto report = tb.execute(plan);
  if (!report.success || !tb.verify(plan)) {
    LOG_ERROR("migration run failed");
    ok = false;
    return 0;
  }
  return report.per_chunk();
}

/// What `--repair-strategy=auto` resolves to for this configuration's
/// reconstruction rounds (planning only, no execution).
std::string auto_pick(const agent::TestbedOptions& base,
                      const ec::ErasureCode& code) {
  auto opts = base;
  opts.repair_strategy = core::StrategyChoice::kAuto;
  agent::Testbed tb(opts, code);
  tb.flag_stf();
  const auto plan =
      tb.make_planner(core::Scenario::kScattered).plan_reconstruction_only();
  for (const auto& round : plan.rounds) {
    if (!round.reconstructions.empty()) {
      return core::to_string(round.strategy);
    }
  }
  return "-";
}

int run_smoke() {
  agent::TestbedOptions opts;
  opts.num_storage = 12;
  opts.num_standby = 2;
  opts.disk_bytes_per_sec = 0;  // unthrottled: smoke checks bytes only
  opts.net_bytes_per_sec = 0;
  opts.chunk_bytes = 64 * kKiB;
  opts.packet_bytes = 16 * kKiB;
  opts.num_stripes = 20;
  opts.seed = 17;
  opts.round_timeout = std::chrono::milliseconds(30000);
  ec::RsCode code(6, 4);

#if FASTPR_TELEMETRY_ENABLED
  const int64_t forwards_before = telemetry::MetricsRegistry::global()
                                      .counter("agent.chain_forwards")
                                      .value();
#endif
  for (auto strategy :
       {core::StrategyChoice::kFanIn, core::StrategyChoice::kChain,
        core::StrategyChoice::kAuto}) {
    const auto run = run_recon(opts, code, strategy);
    if (!run.ok) {
      std::printf("bench_pipelining --smoke: FAIL (%s)\n",
                  core::to_string(strategy).c_str());
      return 1;
    }
  }
#if FASTPR_TELEMETRY_ENABLED
  if (telemetry::MetricsRegistry::global()
          .counter("agent.chain_forwards")
          .value() <= forwards_before) {
    std::printf("bench_pipelining --smoke: FAIL (chain path never ran)\n");
    return 1;
  }
#endif
  std::printf("bench_pipelining --smoke: PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return run_smoke();
  }

  std::printf("=== Repair pipelining: partial-sum helper chains ===\n");
  std::printf(
      "testbed, scattered reconstruction-only, chunk 4 MB (scaled "
      "1/16), bandwidths = EC2/4, chain hop overhead 500 us\n"
      "round = mean isolated reconstruction-round seconds (one transfer "
      "per round); bound = measured single-transfer per-chunk seconds\n\n");

  bench::FigureEmitter fig("bench_pipelining");
  fig.add_config("chunk", "4MB (paper 64MB, scaled 1/16)");
  fig.add_config("bandwidths", "EC2/4 (35.5 MB/s disk, 1.25 Gb/s NIC)");
  fig.add_config("chain_hop_overhead", "500us");
  fig.add_config("scenario", "scattered");
  fig.add_config("gf_kernel", std::string(gf::kernel_name(gf::active_kernel())));
  fig.add_config("seed", "17");

  bool ok = true;
  std::vector<std::string> violations;

  // --- Sweep 1: packet size at k=6 (the crossover). ---
  ec::RsCode rs96(9, 6);
  auto base = bench::testbed_defaults(/*seed=*/17);
  base.num_stripes = 440 / rs96.n();  // ~19 chunks on the STF node
  const double bound96 = run_single_transfer(base, rs96, ok);

  fig.begin_section("(a) packet-size sweep, RS(9,6)",
                    {"packet", "fan-in round", "chain round",
                     "chain/bound", "auto"});
  struct PacketPoint {
    uint64_t packet_kb;
    std::string pick;
    double fanin, chain;
  };
  std::vector<PacketPoint> points;
  for (uint64_t packet_kb : {4, 16, 64, 256, 1024}) {
    auto opts = base;
    opts.packet_bytes = packet_kb * static_cast<uint64_t>(kKiB);
    const auto fanin = run_recon(opts, rs96, core::StrategyChoice::kFanIn);
    const auto chain = run_recon(opts, rs96, core::StrategyChoice::kChain);
    ok = ok && fanin.ok && chain.ok;
    const std::string pick = auto_pick(opts, rs96);
    points.push_back(
        {packet_kb, pick, fanin.mean_round, chain.mean_round});
    fig.add_row({std::to_string(packet_kb) + "KB",
                 Table::fmt(fanin.mean_round, 3),
                 Table::fmt(chain.mean_round, 3),
                 bound96 > 0 ? Table::fmt(chain.mean_round / bound96, 2)
                             : "-",
                 pick});
  }
  fig.end_section();

  // Auto must land on the measured-faster side at both extremes (the
  // 16/64 KB midpoints sit near the crossover and are not asserted).
  const auto check_extreme = [&](const PacketPoint& p) {
    const std::string faster =
        core::to_string(p.fanin <= p.chain ? core::RepairStrategy::kFanIn
                                           : core::RepairStrategy::kChain);
    if (p.pick != faster) {
      violations.push_back("auto picked " + p.pick + " at " +
                           std::to_string(p.packet_kb) +
                           "KB but measured faster side is " + faster);
    }
  };
  check_extreme(points.front());
  check_extreme(points.back());

  // --- Sweep 2: k at the paper's packet size (256 KiB scaled). ---
  fig.begin_section("(b) k sweep at 256KB packets",
                    {"code", "bound", "fan-in round", "chain round",
                     "chain/bound", "auto"});
  for (int k : {6, 8, 10, 12}) {
    ec::RsCode code(k + 3, k);
    auto opts = bench::testbed_defaults(/*seed=*/17);
    opts.num_stripes = 440 / code.n();
    opts.packet_bytes = 256 * kKiB;
    const double bound = run_single_transfer(opts, code, ok);
    const auto fanin = run_recon(opts, code, core::StrategyChoice::kFanIn);
    const auto chain = run_recon(opts, code, core::StrategyChoice::kChain);
    ok = ok && fanin.ok && chain.ok;
    const double ratio = bound > 0 ? chain.mean_round / bound : 0;
    fig.add_row({"RS(" + std::to_string(k + 3) + "," + std::to_string(k) +
                     ")",
                 Table::fmt(bound, 3), Table::fmt(fanin.mean_round, 3),
                 Table::fmt(chain.mean_round, 3), Table::fmt(ratio, 2),
                 auto_pick(opts, code)});
    if (ratio > 1.35) {
      violations.push_back(
          "chain round " + Table::fmt(chain.mean_round, 3) + "s at k=" +
          std::to_string(k) + " exceeds 1.35x the single-transfer bound " +
          Table::fmt(bound, 3) + "s (ratio " + Table::fmt(ratio, 2) + ")");
    }
  }
  fig.end_section();

  std::printf(
      "expected shape: fan-in round grows ~linearly with k; chain round "
      "stays near the single-transfer bound once packets amortize the "
      "hop overhead, with the crossover at small packets\n");
  for (const auto& v : violations) std::printf("VIOLATION: %s\n", v.c_str());
  fig.write_sidecar();
  if (!ok) {
    std::printf("bench_pipelining: FAIL (verification)\n");
    return 1;
  }
  if (!violations.empty()) {
    std::printf("bench_pipelining: FAIL (%zu bound violation(s))\n",
                violations.size());
    return 1;
  }
  return 0;
}
