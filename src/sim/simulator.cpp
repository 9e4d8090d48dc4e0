#include "sim/simulator.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace fastpr::sim {

namespace {

using cluster::NodeId;

/// Round time under per-node resource accounting.
double resource_round_time(const core::RepairRound& round,
                           const SimParams& p) {
  struct NodeLoad {
    double disk_bytes = 0;  // reads + writes share one disk
    double tx_bytes = 0;
    double rx_bytes = 0;
  };
  std::unordered_map<NodeId, NodeLoad> loads;
  const double c = p.chunk_bytes;

  for (const auto& task : round.migrations) {
    auto& src = loads[task.src];
    src.disk_bytes += c;
    src.tx_bytes += c;
    auto& dst = loads[task.dst];
    dst.rx_bytes += c;
    dst.disk_bytes += c;
  }
  for (const auto& task : round.reconstructions) {
    const double helper_bytes = c * p.helper_bytes_fraction;
    for (const auto& read : task.sources) {
      auto& src = loads[read.node];
      src.disk_bytes += helper_bytes;
      src.tx_bytes += helper_bytes;
    }
    auto& dst = loads[task.dst];
    dst.rx_bytes +=
        helper_bytes * static_cast<double>(task.sources.size());
    dst.disk_bytes += c;
  }

  double busiest = 0;
  for (const auto& [node, load] : loads) {
    (void)node;
    const double disk = load.disk_bytes / p.disk_bw;
    const double nic = std::max(load.tx_bytes, load.rx_bytes) / p.net_bw;
    busiest = std::max(busiest, std::max(disk, nic));
  }

  // Latency floor: even an uncontended chunk traverses read → transmit →
  // write sequentially.
  double floor_time = 0;
  if (!round.migrations.empty()) {
    floor_time = std::max(floor_time,
                          c / p.disk_bw + c / p.net_bw + c / p.disk_bw);
  }
  if (!round.reconstructions.empty()) {
    floor_time = std::max(
        floor_time,
        c / p.disk_bw +
            p.k_repair * p.helper_bytes_fraction * c / p.net_bw +
            c / p.disk_bw);
  }
  return std::max(busiest, floor_time);
}

/// Lower bound from the shared rack links: every cross-rack byte of a
/// rack funnels through its uplink (tx) or downlink (rx) of capacity
/// nodes_per_rack · bn / f, so the round lasts at least as long as the
/// busiest such link needs. Chain rounds are charged hop-to-hop over the
/// helper path (each hop forwards a whole chunk); fan-in rounds charge
/// each helper→destination stream.
double rack_round_time(const core::RepairRound& round, const SimParams& p) {
  struct RackLoad {
    double up_bytes = 0;    // leaving the rack
    double down_bytes = 0;  // entering the rack
  };
  const auto rack_of = [&](NodeId node) {
    return static_cast<int>(node) / p.topo_nodes_per_rack;
  };
  std::unordered_map<int, RackLoad> racks;
  const double c = p.chunk_bytes;
  const auto charge = [&](NodeId src, NodeId dst, double bytes) {
    const int sr = rack_of(src);
    const int dr = rack_of(dst);
    if (sr == dr) return;
    racks[sr].up_bytes += bytes;
    racks[dr].down_bytes += bytes;
  };

  for (const auto& task : round.migrations) {
    charge(task.src, task.dst, c);
  }
  const bool chain = round.strategy == core::RepairStrategy::kChain;
  for (const auto& task : round.reconstructions) {
    if (chain) {
      // Partial sums traverse h0 → h1 → … → dst, one chunk per hop.
      NodeId prev = task.sources.empty() ? task.dst : task.sources[0].node;
      for (size_t i = 1; i < task.sources.size(); ++i) {
        charge(prev, task.sources[i].node, c);
        prev = task.sources[i].node;
      }
      charge(prev, task.dst, c);
    } else {
      for (const auto& read : task.sources) {
        charge(read.node, task.dst, c * p.helper_bytes_fraction);
      }
    }
  }

  const double link_bw = static_cast<double>(p.topo_nodes_per_rack) *
                         p.net_bw / p.oversubscription;
  double busiest = 0;
  for (const auto& [rack, load] : racks) {
    (void)rack;
    busiest = std::max(
        busiest, std::max(load.up_bytes, load.down_bytes) / link_bw);
  }
  return busiest;
}

}  // namespace

SimResult simulate(const core::RepairPlan& plan, const SimParams& params) {
  // The paper model is the cost model itself; its constructor also
  // checks every input the other two models share.
  const core::CostModel model(params);
  FASTPR_CHECK(params.topo_racks >= 1);
  if (params.topo_racks > 1) FASTPR_CHECK(params.topo_nodes_per_rack >= 1);

  // Single rack (or full bisection): no traffic ever contends for a
  // rack link, skip the term entirely so flat runs stay bit-identical.
  const bool racked = params.topo_racks > 1 && params.oversubscription > 1.0;

  SimResult result;
  for (const auto& round : plan.rounds) {
    const int cr = static_cast<int>(round.reconstructions.size());
    double t = params.model == TimingModel::kPaperModel
                   ? model.round_time(cr, round.busiest_migration_stream(),
                                      round.strategy)
                   : resource_round_time(round, params);
    if (racked) t = std::max(t, rack_round_time(round, params));
    result.round_times.push_back(t);
    result.total_time += t;
    result.migrated += static_cast<int>(round.migrations.size());
    result.reconstructed += cr;
    result.repair_traffic_chunks +=
        static_cast<long>(round.migrations.size());
    for (const auto& task : round.reconstructions) {
      result.repair_traffic_chunks += static_cast<long>(task.sources.size());
    }
  }
  return result;
}

}  // namespace fastpr::sim
