// The FastPR repair benchmark (see README.md in this directory).
//
//   repairbench --workload <evacuate_unshaped|evacuate_loaded|plan_large>
//               --seed <n> --seconds <s> --trace <0|1> [--smoke]
//               [--git-sha <sha>] [--trace-out <file>]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) arm TraceLog, wrap every public call in the benchmark's own
// spans, diff the MetricsRegistry around each timed operation, run the
// layer probes, and print the per-layer metrics. Either way the last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Any failed repair, plan or
// foreground check makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agent/chunk_store.h"
#include "agent/testbed.h"
#include "bench/bench_common.h"
#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/fastpr.h"
#include "core/multi_stf.h"
#include "core/repair_plan.h"
#include "ec/rs_code.h"
#include "gf/gf256.h"
#include "load/foreground.h"
#include "net/inproc_transport.h"
#include "sim/simulator.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/token_bucket.h"
#include "util/units.h"

namespace {

using namespace fastpr;
using cluster::ChunkRef;
using cluster::NodeId;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one call; returns its wall seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of the index-th input of one stream (setups, timed operations,
/// batch layouts), fixed by the workload seed: every run with the same
/// seed replays the same layouts in the same order.
uint64_t derive_seed(uint64_t workload_seed, uint64_t stream, uint64_t index) {
  return splitmix64(splitmix64(workload_seed * 0x100000001b3ULL + stream) +
                    index);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Mean of the middle half (the interquartile mean). Planning times vary
/// several-fold from layout to layout with no clear peak, so a run's
/// median jumps between sparse neighbours: on plan_large two runs of one
/// seed gave replan medians 27% apart while their per-layout times
/// differed by 9%. The middle half's mean moves smoothly and still drops
/// outliers.
double interquartile_mean(std::vector<double> v) {
  if (v.size() < 4) return median(std::move(v));
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  return mean(std::vector<double>(v.begin() + static_cast<ptrdiff_t>(cut),
                                  v.end() - static_cast<ptrdiff_t>(cut)));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Result collection

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 33;
  bool trace = false;
  bool smoke = false;
  std::string git_sha = "unknown";
  std::string trace_out;
};

class Results {
 public:
  /// Records one checked operation; failures are listed on stderr.
  void check(bool ok, const std::string& what) {
    count(1, ok ? 0 : 1, what);
  }
  /// Records a batch of operations (foreground ops), `failed` of which
  /// failed.
  void count(int64_t attempted, int64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed != 0) {
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
  void metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  void print_table() const {
    std::printf("%-32s %14s  %-9s %s\n", "metric", "value", "unit",
                "samples");
    for (const auto& m : metrics_) {
      std::printf("%-32s %14s  %-9s %s\n", m.name.c_str(),
                  fmt(m.value).c_str(), m.unit.c_str(),
                  m.samples > 0 ? std::to_string(m.samples).c_str() : "");
    }
    std::printf("%-32s %14s  %-9s %lld/%lld\n", "failed_ratio",
                fmt(attempted_ == 0 ? 1.0
                                    : static_cast<double>(failed_) /
                                          static_cast<double>(attempted_))
                    .c_str(),
                "fraction", static_cast<long long>(failed_),
                static_cast<long long>(attempted_));
  }

  std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      if (i != 0) os << ", ";
      os << telemetry::json_str(m.name) << ": {\"value\": " << m.value
         << ", \"unit\": " << telemetry::json_str(m.unit) << "}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Runs a plan validator, turning its CheckFailure into a failed check.
void check_valid(Results& results, const std::string& what,
                 const std::function<void()>& validate) {
  try {
    validate();
    results.check(true, what);
  } catch (const CheckFailure& e) {
    results.check(false, what + ": " + e.what());
  }
}

/// The first half of a plan's rounds followed by `tail`: a replan that
/// treats those rounds as handled must complete them into a whole plan,
/// which validate_plan then checks like any other.
core::RepairPlan splice(const core::RepairPlan& head, size_t head_rounds,
                        const core::RepairPlan& tail) {
  core::RepairPlan out = tail;
  out.stf_node = head.stf_node;
  out.rounds.assign(head.rounds.begin(),
                    head.rounds.begin() + static_cast<ptrdiff_t>(head_rounds));
  out.rounds.insert(out.rounds.end(), tail.rounds.begin(), tail.rounds.end());
  return out;
}

std::vector<ChunkRef> chunks_of_rounds(const core::RepairPlan& plan,
                                       size_t rounds) {
  std::vector<ChunkRef> out;
  for (size_t r = 0; r < rounds; ++r) {
    for (const auto& t : plan.rounds[r].migrations) out.push_back(t.chunk);
    for (const auto& t : plan.rounds[r].reconstructions) {
      out.push_back(t.chunk);
    }
  }
  return out;
}

/// Two healthy storage nodes a bandwidth replan should route around:
/// the helpers the plan reads from most.
std::vector<NodeId> busiest_helpers(const core::RepairPlan& plan,
                                    const cluster::ClusterState& state) {
  std::map<NodeId, int> reads;
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.reconstructions) {
      for (const auto& src : task.sources) ++reads[src.node];
    }
  }
  std::vector<std::pair<int, NodeId>> ranked;
  for (NodeId node : state.healthy_storage_nodes()) {
    ranked.emplace_back(-reads[node], node);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<NodeId> out;
  for (size_t i = 0; i < ranked.size() && out.size() < 2; ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced-run helpers

/// Self time of every span, summed by name: a span's duration minus the
/// part of it covered by spans nested inside it on the same thread.
std::map<std::string, double> self_seconds_by_name(
    std::vector<telemetry::TraceEvent> events) {
  std::map<std::string, double> out;
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.duration_us > b.duration_us;  // parents before children
  });
  struct Open {
    const telemetry::TraceEvent* ev;
    int64_t end;
    int64_t child_us;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    out[o.ev->name] +=
        static_cast<double>(std::max<int64_t>(0, o.ev->duration_us -
                                                     o.child_us)) /
        1e6;
  };
  uint32_t tid = 0;
  for (const auto& ev : events) {
    if (ev.tid != tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      tid = ev.tid;
    }
    const int64_t end = ev.start_us + ev.duration_us;
    while (!stack.empty() && stack.back().end <= ev.start_us) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      stack.back().child_us += std::min(end, stack.back().end) - ev.start_us;
    }
    stack.push_back({&ev, end, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return out;
}

/// Counter and histogram deltas between two registry snapshots.
struct RegistryDelta {
  std::map<std::string, int64_t> counters;
  std::map<std::string, telemetry::Histogram::Snapshot> histograms;

  int64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  telemetry::Histogram::Snapshot histogram(const std::string& name) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? telemetry::Histogram::Snapshot{}
                                  : it->second;
  }
};

RegistryDelta registry_delta(const telemetry::MetricsRegistry::Snapshot& a,
                             const telemetry::MetricsRegistry::Snapshot& b) {
  RegistryDelta d;
  std::map<std::string, int64_t> before;
  for (const auto& [name, v] : a.counters) before[name] = v;
  for (const auto& [name, v] : b.counters) d.counters[name] = v - before[name];
  std::map<std::string, telemetry::Histogram::Snapshot> hbefore;
  for (const auto& [name, h] : a.histograms) hbefore[name] = h;
  for (const auto& [name, h] : b.histograms) {
    telemetry::Histogram::Snapshot delta = h;
    const auto& old = hbefore[name];
    delta.count -= old.count;
    delta.sum -= old.sum;
    for (size_t i = 0; i < delta.buckets.size(); ++i) {
      delta.buckets[i] -= old.buckets[i];
    }
    d.histograms[name] = delta;
  }
  return d;
}

/// One timed operation's view of the telemetry: span self times and
/// registry deltas. Empty unless the run is traced.
struct LayerSample {
  std::map<std::string, double> self_s;
  RegistryDelta registry;
};

/// Brackets one operation: arms nothing itself, but when tracing is on
/// it clears the trace log and snapshots the registry on entry, and
/// collects both on finish().
class LayerProbe {
 public:
  explicit LayerProbe(bool traced) : traced_(traced) {
    if (!traced_) return;
    telemetry::TraceLog::global().clear();
    before_ = telemetry::MetricsRegistry::global().snapshot();
  }
  LayerSample finish(std::vector<telemetry::TraceEvent>* keep = nullptr) {
    LayerSample out;
    if (!traced_) return out;
    out.registry = registry_delta(
        before_, telemetry::MetricsRegistry::global().snapshot());
    auto events = telemetry::TraceLog::global().snapshot();
    out.self_s = self_seconds_by_name(events);
    if (keep != nullptr) *keep = std::move(events);
    telemetry::TraceLog::global().clear();
    return out;
  }

 private:
  bool traced_;
  telemetry::MetricsRegistry::Snapshot before_;
};

/// Per-op samples of named per-layer values; reported as medians.
class LayerSeries {
 public:
  void add(const std::string& name, double v) { series_[name].push_back(v); }
  double median_of(const std::string& name) const {
    const auto it = series_.find(name);
    return it == series_.end() ? 0.0 : median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> series_;
};

// ---------------------------------------------------------------------------
// Layer probes: each data-plane layer's public function timed in
// isolation at the shapes the workloads use. Every probe reports the
// median of several timed batches.

template <typename Fn>
double median_batch_seconds(int batches, int reps, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double s = timed([&] {
      for (int r = 0; r < reps; ++r) fn(r);
    });
    per_call.push_back(s / reps);
  }
  return median(per_call);
}

struct ProbeRates {
  double gf_dot_gbps = 0;         // GF source bytes folded per second
  double crc32c_gbps = 0;
  double store_write_gbps = 0;
  double store_read_gbps = 0;
  double pool_lease_ns = 0;
  double inproc_gbps = 0;
  double shaper_acquire_ns = 0;
  double decode_gbps = 0;         // helper bytes decoded per second
};

ProbeRates run_probes(const ec::RsCode& code, bool smoke) {
  ProbeRates p;
  const int batches = smoke ? 3 : 7;
  Rng rng(0x9e37);
  constexpr size_t kPacket = 256 * kKiB;
  constexpr size_t kChunk = 4 * kMiB;

  {
    std::vector<std::vector<uint8_t>> srcs(6, std::vector<uint8_t>(kPacket));
    for (auto& s : srcs) {
      for (auto& b : s) b = static_cast<uint8_t>(rng.uniform(0, 255));
    }
    std::vector<uint8_t> dst(kPacket, 0);
    const uint8_t* ptrs[6];
    for (size_t i = 0; i < 6; ++i) ptrs[i] = srcs[i].data();
    const uint8_t coeffs[6] = {0x1d, 0x8e, 0x47, 0xad, 0xd8, 0x6c};
    const double s = median_batch_seconds(batches, smoke ? 20 : 200, [&](int) {
      gf::dot_region_xor(dst.data(), ptrs, coeffs, 6, kPacket);
    });
    p.gf_dot_gbps = 6.0 * kPacket / s / 1e9;
  }
  {
    std::vector<uint8_t> buf(kChunk);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.uniform(0, 255));
    // Checking every result keeps the calls from being optimized away.
    const uint32_t expected = crc32c(buf);
    const double s = median_batch_seconds(batches, smoke ? 2 : 10, [&](int) {
      FASTPR_CHECK(crc32c(buf) == expected);
    });
    p.crc32c_gbps = kChunk / s / 1e9;
  }
  {
    agent::SyntheticOracle oracle(code, kChunk, 64, 7);
    agent::ChunkStore store(agent::ChunkStore::Options{}, &oracle);
    const auto tmpl = *oracle.generate(ChunkRef{0, 0});
    const int reps = smoke ? 2 : 8;
    std::vector<double> per_call;
    for (int b = 0; b < batches; ++b) {
      double total = 0;
      for (int r = 0; r < reps; ++r) {
        std::vector<uint8_t> data = tmpl;
        const ChunkRef ref{r, 0};
        total += timed([&] { store.write_unthrottled(ref, std::move(data)); });
      }
      for (int r = 0; r < reps; ++r) store.erase(ChunkRef{r, 0});
      per_call.push_back(total / reps);
    }
    p.store_write_gbps = kChunk / median(per_call) / 1e9;
    // Reads mix data and parity indices, as helper reads do.
    const double s = median_batch_seconds(batches, reps, [&](int r) {
      const auto data = store.read_unthrottled(ChunkRef{r, r % code.n()});
      FASTPR_CHECK(data.has_value());
    });
    p.store_read_gbps = kChunk / s / 1e9;
  }
  {
    const auto pool = BufferPool::create();
    const double s = median_batch_seconds(batches, smoke ? 200 : 20000,
                                          [&](int) {
                                            auto lease = pool->acquire(kPacket);
                                            lease.release();
                                          });
    p.pool_lease_ns = s * 1e9;
  }
  {
    // Two endpoints, unshaped; a sender thread streams pooled 256 KiB
    // data packets and this thread receives them, as an agent's sender
    // worker and a destination dispatcher do.
    net::InprocTransport transport(2, net::InprocTransport::Options{});
    const int packets = smoke ? 64 : 2048;
    std::vector<double> rates;
    for (int b = 0; b < batches; ++b) {
      const auto start = Clock::now();
      std::thread sender([&] {
        for (int i = 0; i < packets; ++i) {
          net::Message msg;
          msg.type = net::MessageType::kDataPacket;
          msg.from = 0;
          msg.to = 1;
          msg.packet_index = static_cast<uint32_t>(i);
          msg.payload = BufferPool::global()->acquire(kPacket);
          transport.send(std::move(msg));
        }
      });
      int received = 0;
      while (received < packets &&
             transport.recv(1, std::chrono::milliseconds(10000)).has_value()) {
        ++received;
      }
      sender.join();
      FASTPR_CHECK(received == packets);
      rates.push_back(static_cast<double>(packets) * kPacket /
                      seconds_since(start) / 1e9);
    }
    transport.shutdown();
    p.inproc_gbps = median(rates);
  }
  {
    // A finite rate far above demand: the bucket's bookkeeping without
    // ever blocking.
    TokenBucket bucket(1e15, 64 * kMiB);
    const double s = median_batch_seconds(batches, smoke ? 200 : 20000,
                                          [&](int) {
                                            bucket.acquire(kPacket);
                                          });
    p.shaper_acquire_ns = s * 1e9;
  }
  {
    constexpr size_t kSlice = 64 * kKiB;
    agent::SyntheticOracle oracle(code, kSlice, 4, 11);
    std::vector<int> helpers;
    std::vector<bool> available(static_cast<size_t>(code.n()), true);
    available[0] = false;
    helpers = code.repair_helpers(0, available);
    std::vector<std::vector<uint8_t>> data;
    for (int h : helpers) data.push_back(*oracle.generate(ChunkRef{1, h}));
    std::vector<ec::ConstChunk> spans;
    for (const auto& d : data) spans.emplace_back(d.data(), d.size());
    std::vector<uint8_t> out(kSlice);
    const double s = median_batch_seconds(batches, smoke ? 20 : 500, [&](int) {
      code.repair_chunk(0, helpers, spans, ec::MutChunk(out.data(), kSlice));
    });
    FASTPR_CHECK(out == *oracle.generate(ChunkRef{1, 0}));
    p.decode_gbps = static_cast<double>(helpers.size()) * kSlice / s / 1e9;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Planning: every workload times plan_fastpr, the mid-repair replan and a
// two-node batch plan on fresh layouts of its own cluster shape.

struct ClusterShape {
  int storage = 0;
  int spares = 0;
  int stripes = 0;        // the single-node layout
  int batch_stripes = 0;  // the two-node batch layout
  int n = 9;
  int k = 6;
  double chunk_bytes = 0;
  cluster::BandwidthProfile bandwidth;
};

/// One random layout with its `flagged` most-loaded nodes marked STF.
struct PlannedCluster {
  std::unique_ptr<cluster::StripeLayout> layout;
  std::unique_ptr<cluster::ClusterState> state;
  double layout_s = 0;
};

PlannedCluster make_cluster(const ClusterShape& shape, int stripes,
                            uint64_t seed, int flagged) {
  PlannedCluster c;
  Rng rng(seed);
  {
    FASTPR_TRACE_SPAN("bench.layout", "bench");
    c.layout_s = timed([&] {
      c.layout = std::make_unique<cluster::StripeLayout>(
          cluster::StripeLayout::random(shape.storage, shape.n, stripes, rng));
    });
  }
  c.state = std::make_unique<cluster::ClusterState>(
      shape.storage, shape.spares, shape.bandwidth);
  std::vector<NodeId> nodes(static_cast<size_t>(shape.storage));
  for (NodeId node = 0; node < shape.storage; ++node) {
    nodes[static_cast<size_t>(node)] = node;
  }
  std::stable_sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    return c.layout->load(a) > c.layout->load(b);
  });
  for (int i = 0; i < flagged; ++i) {
    c.state->set_health(nodes[static_cast<size_t>(i)],
                        cluster::NodeHealth::kSoonToFail);
  }
  return c;
}

/// The two clusters one planning iteration works on.
struct PlanInputs {
  PlannedCluster single;
  PlannedCluster batch;
};

PlanInputs make_plan_inputs(const ClusterShape& shape, uint64_t seed) {
  return PlanInputs{make_cluster(shape, shape.stripes, seed, 1),
                    make_cluster(shape, shape.batch_stripes,
                                 splitmix64(seed ^ 0xba7c4ULL), 2)};
}

core::PlannerOptions planner_options(const ClusterShape& shape) {
  core::PlannerOptions p;
  p.scenario = core::Scenario::kScattered;
  p.k_repair = shape.k;
  p.chunk_bytes = shape.chunk_bytes;
  return p;
}

/// What one planning iteration produced.
struct PlanTimes {
  double plan_s = 0;
  double replan_s = 0;
  double batch_s = 0;
  double sim_s_per_chunk = 0;
  int stf_chunks = 0;
  core::ReconSetStats alg1;
  long batch_match_calls = 0;
  int recon_sets = 0;
  int rounds = 0;
};

/// Plans for the single-node cluster, simulates the plan under the
/// paper's timing model (§III), replans with the first half of its rounds
/// handled and its two busiest helpers deprioritized, and plans the
/// two-node batch. Every plan is validated; the replan together with the
/// handled rounds must form a valid whole plan.
PlanTimes plan_iteration(const ClusterShape& shape, const PlanInputs& in,
                         Results& results, const std::string& what) {
  PlanTimes t;
  const auto popts = planner_options(shape);
  const auto& layout = *in.single.layout;
  const auto& state = *in.single.state;
  t.stf_chunks = static_cast<int>(layout.chunks_on(state.stf_node()).size());

  core::FastPrPlanner planner(layout, state, popts);
  core::RepairPlan plan;
  {
    FASTPR_TRACE_SPAN("bench.plan", "bench");
    t.plan_s = timed([&] { plan = planner.plan_fastpr(); });
  }
  t.alg1 = planner.recon_stats();
  t.rounds = static_cast<int>(plan.rounds.size());
  // Reuses the sets plan_fastpr found: one round per set.
  t.recon_sets =
      static_cast<int>(planner.plan_reconstruction_only().rounds.size());
  check_valid(results, what + " plan", [&] {
    core::validate_plan(plan, layout, state, shape.k);
  });

  sim::SimParams params;
  params.chunk_bytes = shape.chunk_bytes;
  params.disk_bw = shape.bandwidth.disk_bytes_per_sec;
  params.net_bw = shape.bandwidth.net_bytes_per_sec;
  params.k_repair = shape.k;
  params.scenario = core::Scenario::kScattered;
  params.model = sim::TimingModel::kPaperModel;
  sim::SimResult sim;
  {
    FASTPR_TRACE_SPAN("bench.simulate", "bench");
    sim = sim::simulate(plan, params);
  }
  t.sim_s_per_chunk = sim.per_chunk();
  results.check(sim.repaired() == plan.total_repaired() && sim.total_time > 0,
                what + " simulation");

  const size_t half = (plan.rounds.size() + 1) / 2;
  const auto handled = chunks_of_rounds(plan, half);
  const auto slow = busiest_helpers(plan, state);
  core::FastPrPlanner replanner(layout, state, popts);
  core::RepairPlan tail;
  {
    FASTPR_TRACE_SPAN("bench.replan", "bench");
    t.replan_s = timed(
        [&] { tail = replanner.plan_fastpr_remaining(handled, slow); });
  }
  check_valid(results, what + " replan", [&] {
    core::validate_plan(splice(plan, half, tail), layout, state, shape.k);
  });

  const auto& blayout = *in.batch.layout;
  const auto& bstate = *in.batch.state;
  core::MultiStfPlanner batch(blayout, bstate, popts);
  core::RepairPlan bplan;
  {
    FASTPR_TRACE_SPAN("bench.batch_plan", "bench");
    t.batch_s = timed([&] { bplan = batch.plan_fastpr(); });
  }
  t.batch_match_calls = batch.recon_stats().match_calls;
  check_valid(results, what + " batch plan", [&] {
    core::validate_plan(bplan, blayout, bstate, shape.k);
  });
  return t;
}

/// Runs `count` planning iterations on the next seeds of stream 3.
void plan_some(const ClusterShape& shape, uint64_t workload_seed,
               uint64_t& next, int count, Results& results,
               std::vector<PlanTimes>& out) {
  for (int i = 0; i < count; ++i, ++next) {
    const uint64_t seed = derive_seed(workload_seed, 3, next);
    const PlanInputs in = make_plan_inputs(shape, seed);
    out.push_back(
        plan_iteration(shape, in, results, "plan seed " + std::to_string(seed)));
  }
}

void add_plan_layers(LayerSeries& layers, const PlanTimes& t,
                     const LayerSample& sample) {
  auto self = [&](const char* span) {
    const auto it = sample.self_s.find(span);
    return it == sample.self_s.end() ? 0.0 : it->second;
  };
  layers.add("core.alg1_s", self("planner.recon_sets"));
  layers.add("core.schedule_s", self("planner.schedule"));
  // plan_fastpr's time outside its two child spans: placement.
  layers.add("core.placement_s", self("planner.plan_fastpr"));
  layers.add("core.alg1_match_calls", static_cast<double>(t.alg1.match_calls));
  layers.add("core.alg1_swaps", static_cast<double>(t.alg1.swaps));
  layers.add("core.batch_match_calls",
             static_cast<double>(t.batch_match_calls));
  layers.add("core.recon_sets", t.recon_sets);
  layers.add("core.rounds", t.rounds);
  layers.add("core.sim_s_per_chunk", t.sim_s_per_chunk);
}

// ---------------------------------------------------------------------------
// Evacuation workloads

struct EvacuationSpec {
  agent::TestbedOptions testbed;
  /// Open-loop client traffic from just before execute() to just after.
  std::optional<load::WorkloadOptions> clients;
  /// Planning iterations after each evacuation: enough that a run's
  /// planning medians rest on 100+ layouts.
  int plans_per_evacuation = 0;
  /// Set-ups per run, each with its warm-up evacuation; setup_s is their
  /// median.
  int setups = 3;

  /// The shape planning iterations use: the testbed's cluster, with the
  /// bandwidths its planners see (Testbed falls back to 100 MB/s disk
  /// and 1 Gb/s network when unshaped).
  ClusterShape shape() const {
    ClusterShape s;
    s.storage = testbed.num_storage;
    s.spares = testbed.num_standby;
    s.stripes = testbed.num_stripes;
    s.batch_stripes = testbed.num_stripes / 2;
    s.chunk_bytes = static_cast<double>(testbed.chunk_bytes);
    s.bandwidth.disk_bytes_per_sec = testbed.disk_bytes_per_sec > 0
                                         ? testbed.disk_bytes_per_sec
                                         : MBps(100);
    s.bandwidth.net_bytes_per_sec =
        testbed.net_bytes_per_sec > 0 ? testbed.net_bytes_per_sec : Gbps(1);
    return s;
  }
};

/// The paper's testbed cluster (21 storage + 3 spares, 4 MiB chunks,
/// 256 KiB packets) with disk and NIC unshaped: every token bucket
/// returns at once.
EvacuationSpec unshaped_spec(bool smoke) {
  EvacuationSpec spec;
  spec.testbed = bench::testbed_defaults(1);
  spec.testbed.disk_bytes_per_sec = 0;
  spec.testbed.net_bytes_per_sec = 0;
  spec.testbed.num_stripes = smoke ? 30 : 220;  // ~110 chunks flagged
  spec.plans_per_evacuation = smoke ? 1 : 8;
  // A warm-up here takes ~0.6 s of all four cores and moves with host
  // contention, so five set-ups steady the median.
  spec.setups = 5;
  return spec;
}

EvacuationSpec loaded_spec(bool smoke) {
  EvacuationSpec spec;
  spec.testbed = bench::testbed_defaults(1);
  if (smoke) spec.testbed.num_stripes = 30;
  load::WorkloadOptions w;
  w.ops_per_sec = 200;
  w.read_fraction = 0.8;
  w.op_bytes = 64 * kKiB;
  w.zipf_theta = 0.99;
  w.threads = 2;
  w.verify_degraded = true;
  spec.clients = w;
  spec.plans_per_evacuation = smoke ? 1 : 24;
  return spec;
}

/// Everything one evacuation produced.
struct Evacuation {
  double testbed_s = 0;  // Testbed constructor (agents started)
  double plan_s = 0;
  double execute_s = 0;
  int chunks = 0;
  agent::ExecutionReport report;
  std::optional<load::WorkloadStats> clients;
};

/// Builds a fresh testbed from `seed`, plans FastPR for its most-loaded
/// node and executes the plan (under client load when the spec has it),
/// then verifies every repaired chunk; no repaired copy exists before the
/// execution. Every outcome is checked into `results`.
Evacuation evacuate(const EvacuationSpec& spec, const ec::RsCode& code,
                    uint64_t seed, Results& results) {
  Evacuation ev;
  const std::string what = "evacuation seed " + std::to_string(seed);
  agent::TestbedOptions topts = spec.testbed;
  topts.seed = seed;
  std::unique_ptr<agent::Testbed> tb;
  {
    FASTPR_TRACE_SPAN("bench.testbed", "bench");
    ev.testbed_s =
        timed([&] { tb = std::make_unique<agent::Testbed>(topts, code); });
  }
  NodeId stf = cluster::kNoNode;
  {
    FASTPR_TRACE_SPAN("bench.flag_stf", "bench");
    stf = tb->flag_stf();
  }
  core::RepairPlan plan;
  {
    FASTPR_TRACE_SPAN("bench.plan", "bench");
    ev.plan_s = timed([&] {
      plan = tb->make_planner(core::Scenario::kScattered).plan_fastpr();
    });
  }
  check_valid(results, what + " plan", [&] {
    core::validate_plan(plan, tb->layout(), tb->cluster(),
                        code.repair_fetch_count(0), &code);
  });

  std::unique_ptr<load::ForegroundWorkload> clients;
  if (spec.clients.has_value()) {
    load::WorkloadOptions wopts = *spec.clients;
    wopts.seed = splitmix64(seed);
    clients = std::make_unique<load::ForegroundWorkload>(*tb, code, wopts);
    clients->set_degraded(stf);
    FASTPR_TRACE_SPAN("bench.fg_start", "bench");
    clients->start();
  }
  {
    FASTPR_TRACE_SPAN("bench.execute", "bench");
    ev.execute_s = timed([&] { ev.report = tb->execute(plan); });
  }
  if (clients != nullptr) {
    {
      FASTPR_TRACE_SPAN("bench.fg_stop", "bench");
      clients->stop();
    }
    const load::WorkloadStats s = clients->stats();
    const int64_t ops = s.reads + s.writes + s.degraded_reads;
    results.count(std::max<int64_t>(ops, 1),
                  ops == 0 ? 1 : s.failed_ops + s.verify_failures,
                  what + " clients: " + std::to_string(ops) + " ops, " +
                      std::to_string(s.failed_ops) + " failed, " +
                      std::to_string(s.verify_failures) +
                      " degraded reads decoded wrong bytes");
    ev.clients = s;
  }
  ev.chunks = ev.report.repaired();
  bool verified = false;
  {
    FASTPR_TRACE_SPAN("bench.verify", "bench");
    verified = tb->verify(ev.report, plan);
  }
  results.check(ev.report.success && ev.report.unrepaired.empty() &&
                    ev.chunks == plan.total_repaired() && verified,
                what + ": " + std::to_string(ev.chunks) + "/" +
                    std::to_string(plan.total_repaired()) +
                    " repaired, byte verification " +
                    (verified ? "passed" : "FAILED"));
  {
    FASTPR_TRACE_SPAN("bench.teardown", "bench");
    clients.reset();
    tb.reset();
  }
  return ev;
}

void add_evacuation_layers(LayerSeries& layers, const Evacuation& ev,
                           const LayerSample& sample,
                           const EvacuationSpec& spec, int k) {
  auto self = [&](const char* span) {
    const auto it = sample.self_s.find(span);
    return it == sample.self_s.end() ? 0.0 : it->second;
  };
  const auto& reg = sample.registry;
  const auto& rep = ev.report;
  const double chunk_bytes = static_cast<double>(spec.testbed.chunk_bytes);
  layers.add("agent.execute_s", ev.execute_s);
  layers.add("agent.setup_s", ev.testbed_s);
  layers.add("agent.accumulate_s", self("agent.accumulate"));
  layers.add("agent.store_chunk_s", self("agent.store_chunk"));
  layers.add("agent.send_packet_s", self("agent.send_packet"));
  layers.add("agent.stream_chunk_s", self("agent.stream_chunk"));
  const int64_t hits = reg.counter("buffer_pool.hits");
  const int64_t misses = reg.counter("buffer_pool.misses");
  layers.add("util.pool_miss_ratio",
             hits + misses == 0 ? 0.0
                                : static_cast<double>(misses) /
                                      static_cast<double>(hits + misses));
  layers.add("util.pool_dropped",
             static_cast<double>(reg.counter("buffer_pool.dropped")));
  layers.add("util.queue_wait_ms_p99",
             static_cast<double>(
                 reg.histogram("threadpool.queue_wait_us").percentile(0.99)) /
                 1e3);
  const auto waits = reg.histogram("tokenbucket.wait_ns");
  layers.add("util.shaper_wait_s", static_cast<double>(waits.sum) / 1e9);
  layers.add("util.shaper_waits", static_cast<double>(waits.count));
  layers.add("agent.packets",
             static_cast<double>(reg.counter("agent.data_packets_tx")));
  layers.add("agent.wasted_packets",
             static_cast<double>(reg.counter("agent.stale_packets") +
                                 reg.counter("agent.dup_packets")));
  layers.add("agent.retries", rep.retries + rep.round_extensions);
  std::vector<double> round_s;
  std::vector<double> util;
  for (const auto& r : rep.repair.rounds) {
    round_s.push_back(r.duration_seconds);
    util.push_back(r.stf_bw_utilization);
  }
  layers.add("agent.rounds", static_cast<double>(round_s.size()));
  layers.add("agent.round_s_p50", median(round_s));
  layers.add("agent.round_s_max",
             round_s.empty()
                 ? 0.0
                 : *std::max_element(round_s.begin(), round_s.end()));
  layers.add("agent.stf_disk_util", mean(util));
  const double repaired_bytes = ev.chunks * chunk_bytes;
  layers.add("net.bytes_per_repaired_byte",
             repaired_bytes == 0
                 ? 0.0
                 : static_cast<double>(rep.network_bytes) / repaired_bytes);
  layers.add("net.bytes", static_cast<double>(rep.network_bytes));
  // Volumes the data plane moved: every helper chunk (and every migrated
  // chunk) is read, streamed and folded once.
  const double chunk_reads =
      static_cast<double>(rep.reconstructed) * k + rep.migrated;
  layers.add("agent.chunk_reads", chunk_reads);
  layers.add("gf.bytes_folded", chunk_reads * chunk_bytes);
  layers.add("agent.chunks_stored", ev.chunks);
  if (ev.clients.has_value()) {
    layers.add("load.fg_p99_ms", ev.clients->p99_seconds * 1e3);
    layers.add("load.fg_p50_ms", ev.clients->p50_seconds * 1e3);
    layers.add("load.fg_ops_per_s", ev.clients->achieved_ops_per_sec);
    layers.add("load.degraded_reads",
               static_cast<double>(ev.clients->degraded_reads));
  }
}

// ---------------------------------------------------------------------------
// Reporting

void report_end_to_end(Results& results, const std::vector<double>& setup_s,
                       const std::vector<double>& repair_s_per_chunk,
                       const std::vector<PlanTimes>& plans) {
  std::vector<double> plan_s;
  std::vector<double> replan_s;
  std::vector<double> batch_s;
  for (const auto& p : plans) {
    plan_s.push_back(p.plan_s);
    replan_s.push_back(p.replan_s);
    batch_s.push_back(p.batch_s);
  }
  results.metric("setup_s", median(setup_s), "s", setup_s.size());
  results.metric("repair_s_per_chunk", median(repair_s_per_chunk), "s/chunk",
                 repair_s_per_chunk.size());
  results.metric("plan_s", interquartile_mean(plan_s), "s", plan_s.size());
  results.metric("replan_s", interquartile_mean(replan_s), "s",
                 replan_s.size());
  results.metric("batch_plan_s", interquartile_mean(batch_s), "s",
                 batch_s.size());
  results.metric("peak_rss_mb", peak_rss_mib(), "MiB");
}

/// Every per-layer metric, in a fixed order; a layer the workload does
/// not exercise reports 0. Each probe rate sits next to the volume the
/// workload moved through that layer and the time that volume costs at
/// the probed rate (`*_est_s`), to set against agent.execute_s.
void report_layers(Results& results, const LayerSeries& l,
                   const ProbeRates& p, double trace_overhead) {
  auto m = [&](const char* name, const char* unit) {
    results.metric(name, l.median_of(name), unit);
  };
  auto est = [&](const char* name, double volume, double per_second) {
    results.metric(name, per_second > 0 ? volume / per_second : 0, "s");
  };
  const double chunk = 4.0 * kMiB;
  const double packets = l.median_of("agent.packets");
  m("agent.execute_s", "s");
  results.metric("gf.dot_gbps", p.gf_dot_gbps, "GB/s");
  m("gf.bytes_folded", "bytes");
  est("gf.fold_est_s", l.median_of("gf.bytes_folded"), p.gf_dot_gbps * 1e9);
  m("agent.accumulate_s", "s");
  results.metric("util.crc32c_gbps", p.crc32c_gbps, "GB/s");
  m("agent.chunks_stored", "count");
  est("util.crc32c_est_s", l.median_of("agent.chunks_stored") * chunk,
      p.crc32c_gbps * 1e9);
  results.metric("agent.store_write_gbps", p.store_write_gbps, "GB/s");
  est("agent.store_write_est_s", l.median_of("agent.chunks_stored") * chunk,
      p.store_write_gbps * 1e9);
  m("agent.store_chunk_s", "s");
  results.metric("agent.store_read_gbps", p.store_read_gbps, "GB/s");
  m("agent.chunk_reads", "count");
  est("agent.store_read_est_s", l.median_of("agent.chunk_reads") * chunk,
      p.store_read_gbps * 1e9);
  results.metric("util.pool_lease_ns", p.pool_lease_ns, "ns");
  est("util.pool_lease_est_s", packets * p.pool_lease_ns, 1e9);
  m("util.pool_miss_ratio", "fraction");
  m("util.pool_dropped", "count");
  results.metric("net.inproc_gbps", p.inproc_gbps, "GB/s");
  m("net.bytes", "bytes");
  est("net.inproc_est_s", l.median_of("net.bytes"), p.inproc_gbps * 1e9);
  m("util.queue_wait_ms_p99", "ms");
  m("agent.send_packet_s", "s");
  m("agent.stream_chunk_s", "s");
  m("agent.packets", "count");
  m("agent.wasted_packets", "count");
  m("agent.retries", "count");
  m("agent.rounds", "count");
  m("agent.round_s_p50", "s");
  m("agent.round_s_max", "s");
  m("agent.setup_s", "s");
  m("util.shaper_wait_s", "s");
  m("util.shaper_waits", "count");
  results.metric("util.shaper_acquire_ns", p.shaper_acquire_ns, "ns");
  // At most four bucket acquires per packet: source disk, sender NIC,
  // receiver NIC, destination disk.
  est("util.shaper_acquire_est_s", 4 * packets * p.shaper_acquire_ns, 1e9);
  m("agent.stf_disk_util", "fraction");
  m("net.bytes_per_repaired_byte", "ratio");
  results.metric("ec.decode_gbps", p.decode_gbps, "GB/s");
  m("load.degraded_reads", "count");
  est("ec.decode_est_s", l.median_of("load.degraded_reads") * 6.0 * 64 * kKiB,
      p.decode_gbps * 1e9);
  m("load.fg_p99_ms", "ms");
  m("load.fg_p50_ms", "ms");
  m("load.fg_ops_per_s", "ops/s");
  m("core.alg1_s", "s");
  m("core.schedule_s", "s");
  m("core.placement_s", "s");
  m("core.alg1_match_calls", "count");
  m("core.alg1_swaps", "count");
  m("core.batch_match_calls", "count");
  m("core.recon_sets", "count");
  m("core.rounds", "count");
  m("core.sim_s_per_chunk", "s/chunk");
  m("cluster.layout_s", "s");
  results.metric("telemetry.trace_overhead", trace_overhead, "fraction");
}

/// Traced over untraced median, minus one.
double overhead(const std::vector<double>& traced,
                const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base > 0 ? median(traced) / base - 1 : 0;
}

void write_trace(const Options& opt,
                 const std::vector<telemetry::TraceEvent>& events) {
  if (opt.trace_out.empty()) return;
  std::ofstream out(opt.trace_out, std::ios::trunc);
  out << telemetry::events_to_chrome_json(events) << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
  }
}

/// Runs one planning iteration traced, after the same inputs untraced,
/// and adds its layer values.
void traced_plan_iteration(const ClusterShape& shape, uint64_t seed,
                           Results& results, LayerSeries& layers,
                           std::vector<double>& traced_plan_s,
                           std::vector<double>& untraced_plan_s,
                           std::vector<telemetry::TraceEvent>& events) {
  const std::string what = "plan seed " + std::to_string(seed);
  untraced_plan_s.push_back(
      plan_iteration(shape, make_plan_inputs(shape, seed), results, what)
          .plan_s);
  telemetry::TraceLog::global().set_enabled(true);
  LayerProbe probe(true);
  const PlanInputs in = make_plan_inputs(shape, seed);
  const PlanTimes t = plan_iteration(shape, in, results, what);
  const LayerSample sample = probe.finish(&events);
  telemetry::TraceLog::global().set_enabled(false);
  traced_plan_s.push_back(t.plan_s);
  add_plan_layers(layers, t, sample);
  layers.add("cluster.layout_s", in.single.layout_s);
}

// ---------------------------------------------------------------------------
// Workload runs

/// Timed operations run until `seconds` have passed and at least
/// `min_ops` are done; op i gets the i-th seed of stream 2.
template <typename Op>
void run_timed(const Options& opt, int min_ops, Op&& op) {
  const auto start = Clock::now();
  for (uint64_t i = 0;
       static_cast<int>(i) < min_ops || seconds_since(start) < opt.seconds;
       ++i) {
    op(i, derive_seed(opt.seed, 2, i));
  }
}

void run_evacuations(const Options& opt, const EvacuationSpec& spec,
                     const ec::RsCode& code, Results& results) {
  const int setups = opt.smoke ? 1 : spec.setups;
  const int min_ops = opt.smoke ? 1 : 5;
  const ClusterShape shape = spec.shape();

  // Set-up, repeated: a fresh testbed (agents started), its plan, and
  // one untimed warm-up evacuation, which also fills the buffer pool.
  std::vector<double> setup_s;
  for (int s = 0; s < setups; ++s) {
    const Evacuation warm =
        evacuate(spec, code, derive_seed(opt.seed, 1, s), results);
    setup_s.push_back(warm.testbed_s + warm.plan_s + warm.execute_s);
  }

  std::vector<double> per_chunk;
  std::vector<double> untraced;
  std::vector<double> fg_p99_ms;
  std::vector<double> fg_ops;
  std::vector<PlanTimes> plans;
  std::vector<double> traced_plan_s;
  std::vector<double> untraced_plan_s;
  uint64_t next_plan = 0;
  LayerSeries layers;
  std::vector<telemetry::TraceEvent> events;
  run_timed(opt, min_ops, [&](uint64_t i, uint64_t seed) {
    if (opt.trace) {
      // The same layout untraced first: the pair gives the overhead.
      const Evacuation base = evacuate(spec, code, seed, results);
      untraced.push_back(base.execute_s / std::max(1, base.chunks));
      telemetry::TraceLog::global().set_enabled(true);
    }
    LayerProbe probe(opt.trace);
    const Evacuation ev = evacuate(spec, code, seed, results);
    const LayerSample sample = probe.finish(&events);
    telemetry::TraceLog::global().set_enabled(false);
    const double pc = ev.execute_s / std::max(1, ev.chunks);
    per_chunk.push_back(pc);
    std::printf("evacuation %llu: %d chunks, execute %.4f s (%.5f s/chunk)",
                static_cast<unsigned long long>(i + 1), ev.chunks,
                ev.execute_s, pc);
    if (ev.clients.has_value()) {
      fg_p99_ms.push_back(ev.clients->p99_seconds * 1e3);
      fg_ops.push_back(ev.clients->achieved_ops_per_sec);
      std::printf(", clients p99 %.2f ms p50 %.2f ms %.1f ops/s",
                  ev.clients->p99_seconds * 1e3,
                  ev.clients->p50_seconds * 1e3,
                  ev.clients->achieved_ops_per_sec);
    }
    std::printf("\n");
    if (opt.trace) {
      add_evacuation_layers(layers, ev, sample, spec,
                            code.repair_fetch_count(0));
      // The written trace keeps the evacuation's spans, not these.
      std::vector<telemetry::TraceEvent> plan_events;
      traced_plan_iteration(shape, derive_seed(opt.seed, 3, next_plan++),
                            results, layers, traced_plan_s, untraced_plan_s,
                            plan_events);
    } else {
      plan_some(shape, opt.seed, next_plan, spec.plans_per_evacuation,
                results, plans);
    }
  });
  if (!fg_p99_ms.empty()) {
    // A median over evacuations of each one's p99: a run's evacuations
    // together put at least ten ops beyond it once they hold 1000 ops.
    std::printf("clients: p99 %.3f ms, %.1f ops/s of %.0f offered "
                "(medians over %zu evacuations)\n",
                median(fg_p99_ms), median(fg_ops), spec.clients->ops_per_sec,
                fg_p99_ms.size());
  }

  if (!opt.trace) {
    report_end_to_end(results, setup_s, per_chunk, plans);
    return;
  }
  write_trace(opt, events);
  report_layers(results, layers, run_probes(code, opt.smoke),
                overhead(per_chunk, untraced));
}

/// plan_large: the paper's simulation configuration (M = 100 storage
/// nodes + 3 spares, 900 stripes, RS(9,6), 64 MB chunks, 100 MB/s disk,
/// 1 Gb/s NIC): ~100 chunks on the most-loaded node, the low end of
/// Fig 15's range. Plan and replan times vary several-fold from layout to
/// layout, so a run's figures need dozens of layouts: at ~2000 stripes
/// one plan takes ~2.7 s and a run would hold 3-4, while at this size a
/// 33 s run holds ~50. The batch layout has a third of the stripes (~75
/// chunks on its two flagged nodes together), so it takes under a third
/// of each iteration.
ClusterShape large_shape(bool smoke) {
  ClusterShape s;
  s.storage = 100;
  s.spares = 3;
  s.stripes = smoke ? 300 : 900;
  s.batch_stripes = s.stripes / 3;
  s.chunk_bytes = static_cast<double>(MB(64));
  s.bandwidth = {MBps(100), Gbps(1)};
  return s;
}

void run_plan_large(const Options& opt, const ec::RsCode& code,
                    Results& results) {
  const ClusterShape shape = large_shape(opt.smoke);
  // One set-up takes ~30 ms, so nine cost little and steady the median.
  const int setups = opt.smoke ? 1 : 9;
  const int min_ops = opt.smoke ? 1 : 3;

  // Set-up, repeated: the layouts and cluster states of the first
  // iterations, with their planners built (anything a planner
  // precomputes lands here). Later iterations draw theirs untimed.
  const int prepared_count = opt.smoke ? 1 : 24;
  std::vector<double> setup_s;
  std::vector<PlanInputs> prepared;
  for (int s = 0; s < setups; ++s) {
    prepared.clear();
    setup_s.push_back(timed([&] {
      const auto popts = planner_options(shape);
      for (int i = 0; i < prepared_count; ++i) {
        prepared.push_back(
            make_plan_inputs(shape, derive_seed(opt.seed, 3, i)));
        const PlanInputs& in = prepared.back();
        const core::FastPrPlanner planner(*in.single.layout,
                                          *in.single.state, popts);
        const core::MultiStfPlanner batch(*in.batch.layout, *in.batch.state,
                                          popts);
      }
    }));
  }

  std::vector<double> sim_per_chunk;
  std::vector<double> traced_plan_s;
  std::vector<double> untraced_plan_s;
  std::vector<PlanTimes> plans;
  LayerSeries layers;
  std::vector<telemetry::TraceEvent> events;
  uint64_t next_plan = 0;
  run_timed(opt, min_ops, [&](uint64_t i, uint64_t) {
    if (opt.trace) {
      traced_plan_iteration(shape, derive_seed(opt.seed, 3, next_plan++),
                            results, layers, traced_plan_s, untraced_plan_s,
                            events);
      std::printf("iteration %llu: plan %.4f s traced, %.4f s untraced\n",
                  static_cast<unsigned long long>(i + 1),
                  traced_plan_s.back(), untraced_plan_s.back());
      return;
    }
    const uint64_t seed = derive_seed(opt.seed, 3, next_plan);
    const std::string what = "plan seed " + std::to_string(seed);
    if (next_plan < prepared.size()) {
      plans.push_back(
          plan_iteration(shape, prepared[next_plan], results, what));
    } else {
      plans.push_back(plan_iteration(shape, make_plan_inputs(shape, seed),
                                     results, what));
    }
    ++next_plan;
    const PlanTimes& t = plans.back();
    sim_per_chunk.push_back(t.sim_s_per_chunk);
    std::printf(
        "iteration %llu: U=%d, plan %.4f s (%ld MATCH calls), replan %.4f "
        "s, batch plan %.4f s, simulated %.5f s/chunk\n",
        static_cast<unsigned long long>(i + 1), t.stf_chunks, t.plan_s,
        t.alg1.match_calls, t.replan_s, t.batch_s, t.sim_s_per_chunk);
  });

  if (!opt.trace) {
    // No bytes move at this size: repair time per chunk is the
    // simulator's, under the paper's timing model (Figs 8-10).
    report_end_to_end(results, setup_s, sim_per_chunk, plans);
    return;
  }
  write_trace(opt, events);
  report_layers(results, layers, run_probes(code, opt.smoke),
                overhead(traced_plan_s, untraced_plan_s));
}

// ---------------------------------------------------------------------------

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <evacuate_unshaped|evacuate_loaded|"
               "plan_large> [--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--git-sha SHA] [--trace-out FILE]\n",
               argv0);
  return 2;
}

void print_meta(const Options& opt) {
  std::printf(
      "meta: {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": "
      "%s, \"smoke\": %s, \"gf_kernel\": %s, \"telemetry\": %s, "
      "\"build_type\": %s, \"cores\": %u, \"git_sha\": %s}\n",
      telemetry::json_str(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? "true" : "false", opt.smoke ? "true" : "false",
      telemetry::json_str(gf::kernel_name(gf::active_kernel())).c_str(),
      FASTPR_TELEMETRY_ENABLED != 0 ? "true" : "false",
      telemetry::json_str(FASTPR_BUILD_TYPE).c_str(),
      std::thread::hardware_concurrency(),
      telemetry::json_str(opt.git_sha).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--git-sha") {
        opt.git_sha = v;
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (!(opt.seconds > 0)) return usage(argv[0]);

#ifdef FASTPR_SANITIZERS_ENABLED
  std::fprintf(stderr,
               "repairbench: refusing to report timings from a sanitizer "
               "build\n");
  return 2;
#endif
  set_log_level(LogLevel::kWarn);
  const ec::RsCode code(9, 6);
  Results results;
  try {
    if (opt.workload == "evacuate_unshaped") {
      print_meta(opt);
      run_evacuations(opt, unshaped_spec(opt.smoke), code, results);
    } else if (opt.workload == "evacuate_loaded") {
      print_meta(opt);
      run_evacuations(opt, loaded_spec(opt.smoke), code, results);
    } else if (opt.workload == "plan_large") {
      print_meta(opt);
      run_plan_large(opt, code, results);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repairbench: %s\n", e.what());
    return 1;
  }
  results.print_table();
  std::printf("%s\n", results.json().c_str());
  std::fflush(stdout);
  return results.correct() ? 0 : 1;
}
