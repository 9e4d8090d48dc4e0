#include "sim/strategies.h"

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "util/check.h"

namespace fastpr::sim {

namespace {

cluster::NodeId most_loaded_node(const cluster::StripeLayout& layout) {
  cluster::NodeId best = 0;
  for (cluster::NodeId node = 1; node < layout.num_nodes(); ++node) {
    if (layout.load(node) > layout.load(best)) best = node;
  }
  return best;
}

}  // namespace

StrategyTimes run_experiment(const ExperimentConfig& config) {
  FASTPR_CHECK(config.k >= 1 && config.n > config.k);
  Rng rng(config.seed);

  auto layout = cluster::StripeLayout::random(config.num_nodes, config.n,
                                              config.num_stripes, rng);
  cluster::BandwidthProfile bw{config.disk_bw, config.net_bw};
  cluster::ClusterState state(config.num_nodes, config.hot_standby, bw);
  const cluster::NodeId stf = most_loaded_node(layout);
  state.set_health(stf, cluster::NodeHealth::kSoonToFail);

  core::PlannerOptions options;
  options.scenario = config.scenario;
  options.k_repair = config.k;
  options.chunk_bytes = config.chunk_bytes;
  core::FastPrPlanner planner(layout, state, options);

  SimParams sim_params;
  sim_params.chunk_bytes = config.chunk_bytes;
  sim_params.disk_bw = config.disk_bw;
  sim_params.net_bw = config.net_bw;
  sim_params.k_repair = config.k;
  sim_params.hot_standby = config.hot_standby;
  sim_params.scenario = config.scenario;
  sim_params.model = config.model;

  StrategyTimes out;
  out.stf_chunks = static_cast<int>(layout.chunks_on(stf).size());

  const auto fastpr_plan = planner.plan_fastpr();
  const auto fastpr_sim = simulate(fastpr_plan, sim_params);
  out.fastpr = fastpr_sim.per_chunk();
  out.fastpr_rounds = static_cast<int>(fastpr_plan.rounds.size());

  out.reconstruction_only =
      simulate(planner.plan_reconstruction_only(), sim_params).per_chunk();
  out.migration_only =
      simulate(planner.plan_migration_only(), sim_params).per_chunk();
  out.optimum = planner.cost_model().predictive_time_per_chunk();
  return out;
}

StrategyTimes run_averaged(const ExperimentConfig& config, int runs) {
  FASTPR_CHECK(runs >= 1);
  StrategyTimes acc;
  for (int r = 0; r < runs; ++r) {
    ExperimentConfig c = config;
    c.seed = config.seed + static_cast<uint64_t>(r);
    const StrategyTimes t = run_experiment(c);
    acc.fastpr += t.fastpr;
    acc.reconstruction_only += t.reconstruction_only;
    acc.migration_only += t.migration_only;
    acc.optimum += t.optimum;
    acc.stf_chunks += t.stf_chunks;
    acc.fastpr_rounds += t.fastpr_rounds;
  }
  acc.fastpr /= runs;
  acc.reconstruction_only /= runs;
  acc.migration_only /= runs;
  acc.optimum /= runs;
  acc.stf_chunks /= runs;
  acc.fastpr_rounds /= runs;
  return acc;
}

}  // namespace fastpr::sim
