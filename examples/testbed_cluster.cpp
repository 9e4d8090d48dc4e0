// Testbed cluster: run the actual FastPR prototype (coordinator +
// agents moving real bytes over a bandwidth-shaped transport) — the
// in-process equivalent of the paper's 25-instance EC2 deployment.
//
// Executes all three strategies in both repair scenarios, verifies
// every repaired chunk byte-for-byte, and prints a summary.
//
//   ./examples/testbed_cluster            # in-process shaped transport
//   ./examples/testbed_cluster --tcp      # real TCP over loopback
#include <cstdio>
#include <cstring>

#include "agent/testbed.h"

#include "util/logging.h"
#include "ec/rs_code.h"
#include "util/units.h"

using namespace fastpr;

int main(int argc, char** argv) {
  const bool use_tcp = argc > 1 && std::strcmp(argv[1], "--tcp") == 0;
  set_log_level(LogLevel::kWarn);

  ec::RsCode code(9, 6);
  agent::TestbedOptions opts;
  opts.num_storage = 21;  // the paper's EC2 layout: 21 DataNodes...
  opts.num_standby = 3;   // ...plus 3 hot-standby instances
  // EC2 m5.large bandwidths scaled 1/4 (chunks are scaled 1/32), so
  // the shaped I/O stays dominant over local CPU on small hosts.
  opts.disk_bytes_per_sec = MBps(142) / 4;
  opts.net_bytes_per_sec = Gbps(5) / 4;
  opts.chunk_bytes = static_cast<uint64_t>(MB(2));  // scaled-down chunks
  opts.packet_bytes = 256 << 10;
  opts.num_stripes = 70;
  opts.seed = 123;
  opts.use_tcp = use_tcp;

  std::printf("testbed: %d storage + %d standby nodes, %s transport\n",
              opts.num_storage, opts.num_standby,
              use_tcp ? "TCP loopback" : "in-process shaped");
  std::printf("RS(9,6), 2 MB chunks, 256 KB packets, bd=35.5 MB/s, bn=1.25 Gb/s\n\n");

  for (auto scenario :
       {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
    std::printf("--- %s repair ---\n", core::to_string(scenario).c_str());
    for (const char* strategy : {"fastpr", "reconstruction", "migration"}) {
      agent::Testbed tb(opts, code);
      const auto stf = tb.flag_stf();
      auto planner = tb.make_planner(scenario);
      core::RepairPlan plan;
      if (std::strcmp(strategy, "fastpr") == 0) {
        plan = planner.plan_fastpr();
      } else if (std::strcmp(strategy, "reconstruction") == 0) {
        plan = planner.plan_reconstruction_only();
      } else {
        plan = planner.plan_migration_only();
      }
      const auto report = tb.execute(plan);
      const bool verified = tb.verify(plan);
      std::printf(
          "%-15s stf=%2d U=%2d rounds=%2zu migrated=%2d reconstructed=%2d "
          "time=%6.2fs per-chunk=%5.3fs %s\n",
          strategy, stf, tb.layout().load(stf), plan.rounds.size(),
          report.migrated, report.reconstructed, report.repair.total_seconds,
          report.per_chunk(),
          report.success && verified ? "VERIFIED" : "FAILED");
    }
    std::printf("\n");
  }
  return 0;
}
