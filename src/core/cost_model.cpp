#include "core/cost_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fastpr::core {

std::string to_string(Scenario s) {
  return s == Scenario::kScattered ? "scattered" : "hot-standby";
}

std::string to_string(RepairStrategy s) {
  return s == RepairStrategy::kFanIn ? "fanin" : "chain";
}

std::string to_string(StrategyChoice s) {
  switch (s) {
    case StrategyChoice::kFanIn: return "fanin";
    case StrategyChoice::kChain: return "chain";
    case StrategyChoice::kAuto: return "auto";
  }
  return "fanin";
}

CostModel::CostModel(const ModelParams& params) : params_(params) {
  FASTPR_CHECK(params.num_nodes >= 2);
  FASTPR_CHECK(params.stf_chunks >= 1);
  FASTPR_CHECK(params.chunk_bytes > 0);
  FASTPR_CHECK(params.disk_bw > 0);
  FASTPR_CHECK(params.net_bw > 0);
  FASTPR_CHECK(params.k_repair >= 1);
  FASTPR_CHECK(params.batch >= 1);
  FASTPR_CHECK(params.batch <= params.num_nodes - 1);
  FASTPR_CHECK(params.k_repair <= params.num_nodes - params.batch);
  FASTPR_CHECK(params.helper_bytes_fraction > 0 &&
               params.helper_bytes_fraction <= 1.0);
  if (params.scenario == Scenario::kHotStandby) {
    FASTPR_CHECK(params.hot_standby >= 1);
  }
  FASTPR_CHECK(params.packet_bytes >= 0);
  FASTPR_CHECK(params.chain_hop_overhead_seconds >= 0);
  FASTPR_CHECK(params.oversubscription >= 1.0);
  FASTPR_CHECK(params.cross_rack_helper_fraction >= 0 &&
               params.cross_rack_helper_fraction <= 1.0);
  FASTPR_CHECK(params.cross_rack_migration_fraction >= 0 &&
               params.cross_rack_migration_fraction <= 1.0);
}

double CostModel::helper_penalty() const {
  // 1 + (f-1)·x is exactly 1.0 at f = 1 or x = 0, so multiplying a
  // network term by it keeps the flat model bit-identical (DESIGN.md
  // §11: differential tests rely on this).
  return 1.0 + (params_.oversubscription - 1.0) *
                   params_.cross_rack_helper_fraction;
}

double CostModel::migration_penalty() const {
  return 1.0 + (params_.oversubscription - 1.0) *
                   params_.cross_rack_migration_fraction;
}

double CostModel::tm() const {
  const double c = params_.chunk_bytes;
  return c / params_.disk_bw + migration_penalty() * (c / params_.net_bw) +
         c / params_.disk_bw;
}

double CostModel::tr(double g) const {
  const double c = params_.chunk_bytes;
  const double bn = params_.net_bw;
  // Effective helper traffic: k chunks for RS/LRC; MSR helpers each
  // ship helper_bytes_fraction of a chunk (sub-chunk reads, §II-A).
  const double k = params_.k_repair * params_.helper_bytes_fraction;
  const double hx = helper_penalty();
  if (params_.scenario == Scenario::kScattered) {
    // Eq. (5): parallel reads, k (effective) chunks into the
    // destination NIC, one write — independent of the round size. Under
    // rack-disjoint placement every helper stream crosses racks, so the
    // transfer term pays the oversubscription penalty.
    return c / params_.disk_bw + hx * (k * c / bn) + c / params_.disk_bw;
  }
  // Eq. (6): the h spares absorb g·k received chunks and g writes.
  FASTPR_CHECK(g > 0);
  const double h = params_.hot_standby;
  return c / params_.disk_bw + hx * (g * k * c / (h * bn)) +
         g * c / (h * params_.disk_bw);
}

double CostModel::tr_chain(double g) const {
  FASTPR_CHECK_MSG(params_.packet_bytes > 0,
                   "chain round time needs packet_bytes in ModelParams");
  const double c = params_.chunk_bytes;
  const double p = std::min(params_.packet_bytes, c);
  const double k = params_.k_repair;
  const double o = params_.chain_hop_overhead_seconds;
  const double bn = params_.net_bw;
  // Store-and-forward overhead: the paced hop forwards N = ceil(c/p)
  // packets and the pipeline fill adds k-1 more forward slots. A
  // one-helper "chain" is a plain coefficient-scaled stream, which pays
  // no forwarding at all.
  const double packets = std::ceil(c / p);
  const double overhead =
      params_.k_repair >= 2 ? (packets + k - 1.0) * o : 0.0;
  const double hx = helper_penalty();
  if (params_.scenario == Scenario::kScattered) {
    // Single-transfer bound plus (k-1) per-hop packet latencies: every
    // link carries one chunk, the fill is one packet per extra hop.
    // Chain hops inherit the helper traffic's cross-rack fraction: a
    // rack-disjoint stripe's chain crosses racks on every hop.
    return c / params_.disk_bw + hx * (c / bn + (k - 1.0) * p / bn) +
           overhead + c / params_.disk_bw;
  }
  // Hot-standby: the h spares absorb g single-chunk chain tails (vs
  // g·k fan-in streams in Eq. 6) and g writes.
  FASTPR_CHECK(g > 0);
  const double h = params_.hot_standby;
  return c / params_.disk_bw + hx * (g * c / (h * bn) +
         (k - 1.0) * p / bn) + overhead +
         g * c / (h * params_.disk_bw);
}

double CostModel::tr(double g, RepairStrategy strategy) const {
  return strategy == RepairStrategy::kChain ? tr_chain(g) : tr(g);
}

RepairStrategy CostModel::choose_strategy(double g) const {
  if (params_.packet_bytes <= 0) return RepairStrategy::kFanIn;
  return tr_chain(g) < tr(g) ? RepairStrategy::kChain
                             : RepairStrategy::kFanIn;
}

double CostModel::max_parallel_groups() const {
  return static_cast<double>(params_.num_nodes - params_.batch) /
         static_cast<double>(params_.k_repair);
}

double CostModel::total_time(double x, double g) const {
  FASTPR_CHECK(x >= 0 && x <= params_.stf_chunks);
  const double u = params_.stf_chunks;
  const double b = params_.batch;
  return std::max(x / b * tm(), (u - x) / g * tr(g));
}

double CostModel::optimal_migration_chunks() const {
  const double g = max_parallel_groups();
  const double t_r = tr(g);
  const double b = params_.batch;
  return params_.stf_chunks * b * t_r / (g * tm() + b * t_r);
}

double CostModel::predictive_time() const {
  // Eq. (2): U·tr·tm / (G·tm + B·tr) — the B migration streams drain in
  // parallel, each carrying x*/B chunks (Eq. 2 exactly at B = 1).
  const double g = max_parallel_groups();
  const double t_r = tr(g);
  const double t_m = tm();
  const double b = params_.batch;
  return params_.stf_chunks * t_r * t_m / (g * t_m + b * t_r);
}

double CostModel::reactive_time() const {
  const double g = max_parallel_groups();
  return params_.stf_chunks * tr(g) / g;
}

double CostModel::migration_only_time() const {
  return params_.stf_chunks * tm() / params_.batch;
}

double CostModel::predictive_time_per_chunk() const {
  return predictive_time() / params_.stf_chunks;
}

double CostModel::reactive_time_per_chunk() const {
  return reactive_time() / params_.stf_chunks;
}

int CostModel::migration_quota(int cr, RepairStrategy strategy) const {
  if (cr <= 0) return 0;
  const double quota = tr(static_cast<double>(cr), strategy) / tm();
  return static_cast<int>(std::floor(quota));
}

double CostModel::round_time(int cr, int slowest_stream_cm,
                             RepairStrategy strategy) const {
  FASTPR_CHECK(cr >= 0 && slowest_stream_cm >= 0);
  // Migrations serialize through each STF disk; reconstructions of one
  // round run in parallel groups. The round ends when both finish.
  const double recon =
      cr > 0 ? tr(static_cast<double>(cr), strategy) : 0.0;
  const double migrate = slowest_stream_cm * tm();
  return std::max(recon, migrate);
}

}  // namespace fastpr::core
