#include "agent/testbed.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "gf/gf256.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"

namespace fastpr::agent {

using cluster::ChunkRef;
using cluster::NodeId;

namespace {

/// splitmix64: fast deterministic filler for data-chunk contents.
uint64_t splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// dst[i] = src[i] ^ c for the whole buffer, word-at-a-time (dst may
/// be src).
void xor_constant(uint8_t* dst, const uint8_t* src, uint8_t c, size_t len) {
  uint64_t broadcast = c;
  broadcast |= broadcast << 8;
  broadcast |= broadcast << 16;
  broadcast |= broadcast << 32;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    __builtin_memcpy(&w, src + i, 8);
    w ^= broadcast;
    __builtin_memcpy(dst + i, &w, 8);
  }
  for (; i < len; ++i) dst[i] = static_cast<uint8_t>(src[i] ^ c);
}

}  // namespace

SyntheticOracle::SyntheticOracle(const ec::ErasureCode& code,
                                 uint64_t chunk_bytes, int num_stripes,
                                 uint64_t seed)
    : code_(code),
      chunk_bytes_(chunk_bytes),
      num_stripes_(num_stripes),
      seed_(seed),
      pattern_(chunk_bytes) {
  FASTPR_CHECK(chunk_bytes >= 8);
  uint64_t state = seed ^ 0xfa57fa57fa57fa57ULL;
  size_t i = 0;
  for (; i + 8 <= pattern_.size(); i += 8) {
    const uint64_t word = splitmix64(state);
    __builtin_memcpy(pattern_.data() + i, &word, 8);
  }
  for (uint64_t word = splitmix64(state); i < pattern_.size(); ++i) {
    pattern_[i] = static_cast<uint8_t>(word >> (8 * (i % 8)));
  }
}

uint8_t SyntheticOracle::chunk_constant(cluster::StripeId stripe,
                                        int index) const {
  uint64_t state = seed_ ^ (static_cast<uint64_t>(stripe) << 20) ^
                   static_cast<uint64_t>(index);
  return static_cast<uint8_t>(splitmix64(state));
}

bool SyntheticOracle::read_slice(ChunkRef chunk, uint64_t offset,
                                 std::span<uint8_t> out) const {
  if (chunk.stripe < 0 || chunk.stripe >= num_stripes_) return false;
  if (chunk.index < 0 || chunk.index >= code_.n()) return false;
  if (offset > chunk_bytes_ || out.size() > chunk_bytes_ - offset) {
    return false;
  }
  if (out.empty()) return true;
  const uint8_t* pattern = pattern_.data() + offset;

  if (chunk.index < code_.k()) {
    // Data chunk: P ⊕ c(s, j).
    xor_constant(out.data(), pattern,
                 chunk_constant(chunk.stripe, chunk.index), out.size());
    return true;
  }

  // Parity: (⊕_j w_j)·P ⊕ K by GF distributivity over XOR.
  const auto coeffs = code_.parity_coefficients(chunk.index);
  uint8_t coeff_sum = 0;
  uint8_t constant = 0;
  for (int j = 0; j < code_.k(); ++j) {
    const uint8_t w = coeffs[static_cast<size_t>(j)];
    coeff_sum = static_cast<uint8_t>(coeff_sum ^ w);
    constant = static_cast<uint8_t>(
        constant ^ gf::mul(w, chunk_constant(chunk.stripe, j)));
  }
  gf::mul_region(out.data(), pattern, coeff_sum, out.size());
  xor_constant(out.data(), out.data(), constant, out.size());
  return true;
}

std::optional<std::vector<uint8_t>> SyntheticOracle::generate(
    ChunkRef chunk) const {
  std::vector<uint8_t> data(chunk_bytes_);
  if (!read_slice(chunk, 0, data)) return std::nullopt;
  return data;
}

Testbed::Testbed(const TestbedOptions& options, const ec::ErasureCode& code)
    : options_(options), code_(code) {
  FASTPR_CHECK(options.num_storage >= code.n());
  FASTPR_CHECK(options.chunk_bytes >= 1 && options.packet_bytes >= 1);

  const int num_nodes = options.num_storage + options.num_standby + 1;

  oracle_ = std::make_unique<SyntheticOracle>(
      code, options.chunk_bytes, options.num_stripes, options.seed);

  // Per-link expected pace for straggler flagging: a fan-in destination
  // NIC splits across the k_repair helper streams, so a healthy link may
  // legitimately run at net/k — expect that, not the full NIC rate.
  // Migration links run faster than this and simply never flag.
  if (options.net_bytes_per_sec > 0) {
    flow_.set_default_expected_rate(
        options.net_bytes_per_sec /
        std::max(1, code.repair_fetch_count(0)));
  }

  net::ShapedTransport::Options topts;
  topts.net_bytes_per_sec = options.net_bytes_per_sec;
  topts.chain_hop_overhead_seconds = options.chain_hop_overhead_seconds;
  topts.flow_monitor = &flow_;
  if (options.use_tcp) {
    transport_ = std::make_unique<net::TcpTransport>(num_nodes, topts);
  } else {
    transport_ = std::make_unique<net::InprocTransport>(num_nodes, topts);
  }
  if (options.fault_plan.has_value()) {
    faulty_ = std::make_unique<net::FaultyTransport>(*transport_,
                                                     *options.fault_plan);
  }

  if (options.throttle.has_value()) {
    throttler_ = std::make_unique<core::RepairThrottler>(*options.throttle);
  }
  if (options.bandwidth_replan.enabled) {
    bandwidth_trigger_ = std::make_unique<core::BandwidthReplanTrigger>(
        options.bandwidth_replan);
  }

  Rng rng(options.seed);
  if (options.topology.has_value() && !options.topology->is_flat()) {
    FASTPR_CHECK_MSG(
        options.topology->num_nodes() == options.num_storage,
        "topology must cover exactly the storage nodes: "
            << options.topology->to_string() << " vs "
            << options.num_storage
            << " (spares and the coordinator live in overflow racks)");
    layout_ = std::make_unique<cluster::StripeLayout>(
        cluster::StripeLayout::random_racked(
            options.num_storage, code.n(), options.num_stripes,
            options.topology->nodes_per_rack(), rng));
  } else {
    layout_ = std::make_unique<cluster::StripeLayout>(
        cluster::StripeLayout::random(options.num_storage, code.n(),
                                      options.num_stripes, rng));
  }
  // The cluster's bandwidth profile feeds the planner's cost model;
  // an unthrottled testbed (0 = no shaping) still needs positive model
  // bandwidths, so fall back to the paper's defaults there.
  const double model_disk = options.disk_bytes_per_sec > 0
                                ? options.disk_bytes_per_sec
                                : MBps(100);
  const double model_net = options.net_bytes_per_sec > 0
                               ? options.net_bytes_per_sec
                               : Gbps(1);
  cluster_ = std::make_unique<cluster::ClusterState>(
      options.num_storage, options.num_standby,
      cluster::BandwidthProfile{model_disk, model_net});

  const NodeId coord = coordinator_id();
  for (NodeId node = 0; node < coord; ++node) {
    ChunkStore::Options sopts;
    sopts.disk_bytes_per_sec = options.disk_bytes_per_sec;
    stores_.push_back(std::make_unique<ChunkStore>(sopts, oracle_.get()));
    AgentOptions aopts;
    aopts.coordinator = coord;
    if (throttler_ != nullptr) {
      budgets_.push_back(std::make_unique<RepairBudget>());
      aopts.repair_budget = budgets_.back().get();
      aopts.pressure = &pressure_;
      throttler_->add_agent(node);
    }
    agents_.push_back(std::make_unique<Agent>(node, transport(),
                                              *stores_.back(), aopts));
    agents_.back()->start();
  }

  CoordinatorOptions copts;
  copts.chunk_bytes = options.chunk_bytes;
  copts.packet_bytes = options.packet_bytes;
  copts.round_timeout = options.round_timeout;
  copts.max_attempts = options.max_attempts;
  copts.retry_backoff = options.retry_backoff;
  copts.probe_timeout = options.probe_timeout;
  copts.max_round_extensions = options.max_round_extensions;
  copts.stf_failure_threshold = options.stf_failure_threshold;
  copts.throttler = throttler_.get();
  copts.stf_deadline_seconds = options.stf_deadline_seconds;
  copts.topology = topology();
  if (bandwidth_trigger_ != nullptr) {
    copts.flow_monitor = &flow_;
    copts.bandwidth_trigger = bandwidth_trigger_.get();
  }
  // Retried tasks may retarget onto any agent-backed node, spares
  // included (they are idle, so the load-aware matcher prefers them).
  copts.dest_candidates.resize(static_cast<size_t>(coord));
  for (NodeId node = 0; node < coord; ++node) {
    copts.dest_candidates[static_cast<size_t>(node)] = node;
  }
  coordinator_ = std::make_unique<Coordinator>(coord, transport(), code_,
                                               *layout_, copts);
}

Testbed::~Testbed() {
  // Unlimit leased budgets first: a sender blocked on a floor-rate
  // lease must drain before its agent's stop() can join it.
  for (auto& budget : budgets_) budget->release();
  for (auto& agent : agents_) agent->stop();
  transport_->shutdown();
}

NodeId Testbed::coordinator_id() const {
  return options_.num_storage + options_.num_standby;
}

Agent& Testbed::agent(NodeId node) {
  FASTPR_CHECK(node >= 0 && node < static_cast<int>(agents_.size()));
  return *agents_[static_cast<size_t>(node)];
}

ChunkStore& Testbed::store(NodeId node) {
  FASTPR_CHECK(node >= 0 && node < static_cast<int>(stores_.size()));
  return *stores_[static_cast<size_t>(node)];
}

RepairBudget* Testbed::repair_budget(NodeId node) {
  if (budgets_.empty()) return nullptr;
  FASTPR_CHECK(node >= 0 && node < static_cast<int>(budgets_.size()));
  return budgets_[static_cast<size_t>(node)].get();
}

NodeId Testbed::flag_stf() { return flag_stf_batch(1).front(); }

std::vector<NodeId> Testbed::flag_stf_batch(int count) {
  FASTPR_CHECK(count >= 1 && count < layout_->num_nodes());
  std::vector<NodeId> by_load(static_cast<size_t>(layout_->num_nodes()));
  for (NodeId node = 0; node < layout_->num_nodes(); ++node) {
    by_load[static_cast<size_t>(node)] = node;
  }
  std::stable_sort(by_load.begin(), by_load.end(),
                   [this](NodeId a, NodeId b) {
                     return layout_->load(a) > layout_->load(b);
                   });
  by_load.resize(static_cast<size_t>(count));
  return flag_stf_nodes(std::move(by_load));
}

std::vector<NodeId> Testbed::flag_stf_nodes(std::vector<NodeId> nodes) {
  FASTPR_CHECK(!nodes.empty());
  for (NodeId node : nodes) {
    FASTPR_CHECK(node >= 0 && node < layout_->num_nodes());
    cluster_->set_health(node, cluster::NodeHealth::kSoonToFail);
  }

  // The fault plan may target "the STF node" symbolically; now that it
  // is known (for a batch: its first member), arm those entries and
  // plant the scripted read errors.
  if (options_.fault_plan.has_value()) {
    options_.fault_plan->resolve_stf(nodes.front());
    if (faulty_ != nullptr) faulty_->resolve_stf(nodes.front());
    for (const auto& err : options_.fault_plan->read_errors) {
      FASTPR_CHECK(err.node >= 0 &&
                   err.node < static_cast<int>(stores_.size()));
      auto& victim = *stores_[static_cast<size_t>(err.node)];
      if (err.stripe == net::FaultPlan::ReadError::kAllStripes) {
        for (ChunkRef chunk : layout_->chunks_on(err.node)) {
          victim.inject_read_error(chunk);
        }
      } else {
        for (ChunkRef chunk : layout_->chunks_on(err.node)) {
          if (chunk.stripe == err.stripe) victim.inject_read_error(chunk);
        }
      }
    }
  }
  return nodes;
}

core::FastPrPlanner Testbed::make_planner(core::Scenario scenario) {
  core::PlannerOptions popts;
  popts.scenario = scenario;
  popts.k_repair = code_.repair_fetch_count(0);
  popts.chunk_bytes = static_cast<double>(options_.chunk_bytes);
  popts.code = &code_;
  popts.packet_bytes = static_cast<double>(options_.packet_bytes);
  popts.chain_hop_overhead_seconds = options_.chain_hop_overhead_seconds;
  popts.sched.strategy = options_.repair_strategy;
  popts.topology = topology();
  return core::FastPrPlanner(*layout_, *cluster_, popts);
}

ExecutionReport Testbed::execute(const core::RepairPlan& plan) {
  // Mid-repair replan hook (DESIGN.md §7, §11): a pure reactive plan
  // over what is left once the STF node has died, otherwise the
  // predictive tail re-derived with the straggler links' source
  // endpoints deprioritized as helpers. The scenario is recovered from
  // the plan's destinations.
  core::Scenario scenario = core::Scenario::kScattered;
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.migrations) {
      if (task.dst >= options_.num_storage) {
        scenario = core::Scenario::kHotStandby;
      }
    }
    for (const auto& task : round.reconstructions) {
      if (task.dst >= options_.num_storage) {
        scenario = core::Scenario::kHotStandby;
      }
    }
  }
  // The coordinator replans single-STF executions only.
  const auto replan = [this, scenario, &plan](const ReplanRequest& request) {
    auto planner = make_planner(scenario);
    if (std::binary_search(request.failed_nodes.begin(),
                           request.failed_nodes.end(),
                           plan.stf_nodes.front())) {
      return planner.plan_reactive(request.handled, request.failed_nodes);
    }
    core::ReactiveResult tail;
    tail.plan =
        planner.plan_fastpr_remaining(request.handled, request.slow_nodes);
    return tail;
  };

  const int64_t before = transport_->data_bytes_sent();
  flow_.clear();  // links in the report cover this execution only
  auto report = coordinator_->execute(plan, replan);
  report.network_bytes = transport_->data_bytes_sent() - before;
  report.repair.links = flow_.snapshot();
  // The coordinator cannot know the disk rate; the testbed does. Every
  // migration reads its STF member's (shaped) disk for its whole
  // interval, which a pulled migration stretches across rounds: each
  // round gets the share of its bytes that overlaps the round, over what
  // the members still alive could have read.
  if (options_.disk_bytes_per_sec > 0) {
    const auto chunk = static_cast<double>(options_.chunk_bytes);
    for (auto& round : report.repair.rounds) {
      if (round.duration_seconds <= 0) continue;
      const double begin = round.start_seconds;
      const double end = begin + round.duration_seconds;
      double bytes = 0;
      for (const auto& done : report.completions) {
        if (!done.migrated) continue;
        const double span = done.finish_seconds - done.start_seconds;
        const double overlap = std::min(end, done.finish_seconds) -
                               std::max(begin, done.start_seconds);
        if (span <= 0 || overlap <= 0) continue;
        bytes += chunk * overlap / span;
      }
      int live = 0;
      for (const auto& member : report.repair.per_stf) {
        if (member.died_at_round == 0 || member.died_at_round >= round.round) {
          ++live;
        }
      }
      round.stf_bw_utilization =
          bytes / (options_.disk_bytes_per_sec * round.duration_seconds *
                   std::max(1, live));
    }
  }
  return report;
}

std::vector<telemetry::PredictedRound> Testbed::predict_rounds(
    const core::RepairPlan& plan, core::Scenario scenario) {
  const core::CostModel model = make_planner(scenario).cost_model();
  std::vector<telemetry::PredictedRound> predicted;
  predicted.reserve(plan.rounds.size());
  for (const auto& round : plan.rounds) {
    telemetry::PredictedRound p;
    p.cr = static_cast<int>(round.reconstructions.size());
    p.cm = static_cast<int>(round.migrations.size());
    // Migration streams run in parallel, one per STF disk; the round is
    // paced by the most-loaded source (DESIGN.md §8).
    const int slowest_stream_cm = round.busiest_migration_stream();
    p.duration_seconds =
        model.round_time(p.cr, slowest_stream_cm, round.strategy);
    // Phase expectations the drift tables diff the measured tr/tm
    // against: the reconstruction side of the round, and the slowest
    // migration stream (round_time = max of the two).
    if (p.cr > 0) p.tr_seconds = model.tr(p.cr, round.strategy);
    if (slowest_stream_cm > 0) p.tm_seconds = slowest_stream_cm * model.tm();
    predicted.push_back(p);
  }
  return predicted;
}

bool Testbed::chunk_ok(ChunkRef chunk, NodeId dst,
                       std::vector<uint8_t>& scratch) const {
  if (dst < 0 || dst >= static_cast<int>(stores_.size())) return false;
  const auto& dst_store = *stores_[static_cast<size_t>(dst)];
  // The chunk must have been explicitly written to the destination;
  // oracle-synthesizable content does not count as repaired.
  if (!dst_store.has_materialized(chunk)) return false;
  const uint64_t chunk_bytes = oracle_->chunk_bytes();
  if (dst_store.chunk_size(chunk) != chunk_bytes) return false;
  const uint64_t slice = options_.packet_bytes;
  scratch.resize(2 * slice);
  for (uint64_t offset = 0; offset < chunk_bytes; offset += slice) {
    const size_t len = std::min(slice, chunk_bytes - offset);
    const std::span<uint8_t> repaired(scratch.data(), len);
    const std::span<uint8_t> expected(scratch.data() + slice, len);
    if (!dst_store.read_slice(chunk, offset, repaired) ||
        !oracle_->read_slice(chunk, offset, expected) ||
        std::memcmp(repaired.data(), expected.data(), len) != 0) {
      return false;
    }
  }
  return true;
}

bool Testbed::verify(const ExecutionReport& report,
                     const core::RepairPlan& plan) const {
  // Accounting: completions ∪ unrepaired must be exactly the plan's
  // chunk set, with no chunk in both and none dropped silently.
  std::unordered_set<ChunkRef, cluster::ChunkRefHash> planned;
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.migrations) planned.insert(task.chunk);
    for (const auto& task : round.reconstructions) {
      planned.insert(task.chunk);
    }
  }
  std::unordered_set<ChunkRef, cluster::ChunkRefHash> accounted;
  std::vector<uint8_t> scratch;
  // §IV-A on the executed placement. The reactive tail a dead STF leaves
  // places rack-blind by design (FastPrPlanner::plan_reactive), so the
  // rack rule holds only for executions that stayed predictive.
  core::PlacementLedger ledger(
      *layout_, plan.stf_nodes, options_.num_storage,
      report.degraded_to_reactive ? nullptr : topology());
  for (const auto& done : report.completions) {
    if (planned.count(done.chunk) == 0) return false;
    if (!accounted.insert(done.chunk).second) return false;
    if (!ledger.allows(done.chunk, done.dst)) return false;
    ledger.place(done.chunk, done.dst);
    if (!chunk_ok(done.chunk, done.dst, scratch)) return false;
  }
  for (ChunkRef chunk : report.unrepaired) {
    if (planned.count(chunk) == 0) return false;
    if (!accounted.insert(chunk).second) return false;
  }
  return accounted.size() == planned.size();
}

}  // namespace fastpr::agent
