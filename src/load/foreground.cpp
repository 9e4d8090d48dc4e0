#include "load/foreground.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "telemetry/trace.h"
#include "util/check.h"

namespace fastpr::load {

using cluster::ChunkRef;
using cluster::NodeId;

namespace {

/// Latency samples each window (global and per node) keeps.
constexpr size_t kWindowCapacity = 1 << 14;

/// Exponential inter-arrival gap (µs) for a Poisson process at `rate`.
int64_t exp_gap_us(Rng& rng, double rate_per_sec) {
  const double u = rng.uniform_real(1e-12, 1.0);
  return static_cast<int64_t>(-std::log(u) / rate_per_sec * 1e6);
}

/// Chunk universe = every chunk in the layout, shuffled so the Zipfian
/// hot set spreads over pseudo-random nodes.
std::vector<ChunkRef> chunk_universe(const cluster::StripeLayout& layout,
                                     uint64_t seed) {
  std::vector<ChunkRef> all;
  all.reserve(static_cast<size_t>(layout.total_chunks()));
  for (int s = 0; s < layout.num_stripes(); ++s) {
    for (int i = 0; i < layout.chunks_per_stripe(); ++i) {
      all.push_back(ChunkRef{s, i});
    }
  }
  Rng shuffler(seed ^ 0x217f0000ULL);
  shuffler.shuffle(all);
  return all;
}

}  // namespace

ForegroundWorkload::ForegroundWorkload(agent::Testbed& testbed,
                                       const ec::ErasureCode& code,
                                       const WorkloadOptions& options)
    : testbed_(testbed),
      code_(code),
      options_(options),
      chunks_(chunk_universe(testbed.layout(), options.seed)),
      zipf_(chunks_.size(), options.zipf_theta),
      global_(kWindowCapacity) {
  FASTPR_CHECK(options.ops_per_sec > 0);
  FASTPR_CHECK(options.read_fraction >= 0 && options.read_fraction <= 1);
  FASTPR_CHECK(options.op_bytes > 0);
  FASTPR_CHECK(options.threads >= 1);
  chunk_bytes_ = static_cast<int64_t>(testbed_.oracle().chunk_bytes());
  const auto& layout = testbed_.layout();
  stripe_nodes_.reserve(static_cast<size_t>(layout.num_stripes()));
  for (int s = 0; s < layout.num_stripes(); ++s) {
    stripe_nodes_.push_back(layout.stripe_nodes(s));
  }
  // One slot per agent-backed node (storage + standby).
  const int num_nodes = layout.num_nodes();
  nodes_.reserve(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    nodes_.push_back(std::make_unique<PerNode>(kWindowCapacity));
  }
}

ForegroundWorkload::~ForegroundWorkload() { stop(); }

void ForegroundWorkload::start() {
  if (running_.exchange(true)) return;
  // The trace clock's epoch is captured lazily at first use, so this
  // very call can legitimately read 0 µs — clamp to 1 so the "never
  // started" sentinel in stats()/sample() stays unambiguous.
  start_us_.store(std::max<int64_t>(1, telemetry::trace_now_us()),
                  std::memory_order_relaxed);
  threads_.reserve(static_cast<size_t>(options_.threads));
  for (int t = 0; t < options_.threads; ++t) {
    threads_.emplace_back([this, t] { worker(t); });
  }
}

void ForegroundWorkload::stop() {
  running_.store(false);
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

void ForegroundWorkload::set_degraded(NodeId node) {
  FASTPR_CHECK(node >= 0 && node < static_cast<int>(nodes_.size()));
  nodes_[static_cast<size_t>(node)]->degraded.store(true);
}

bool ForegroundWorkload::node_degraded(NodeId node) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return true;
  if (nodes_[static_cast<size_t>(node)]->degraded.load()) return true;
  const net::FaultyTransport* faulty = const_cast<ForegroundWorkload*>(this)
                                           ->testbed_.faulty();
  return faulty != nullptr && faulty->crashed(node);
}

bool ForegroundWorkload::run_degraded_read(
    ChunkRef chunk, int64_t slice, std::vector<NodeId>& touched) {
  const auto& placement = stripe_nodes_[static_cast<size_t>(chunk.stripe)];
  std::vector<bool> available(placement.size(), true);
  for (size_t j = 0; j < placement.size(); ++j) {
    if (node_degraded(placement[j])) available[j] = false;
  }
  std::vector<int> helpers;
  try {
    helpers = code_.repair_helpers(chunk.index, available);
  } catch (const CheckFailure&) {
    return false;  // too many nodes down — the read just fails
  }

  // The op decodes bytes [0, slice) of the chunk, so each helper read
  // fetches just that range of its chunk.
  const size_t len = static_cast<size_t>(slice);
  std::vector<uint8_t> helper_data;
  if (options_.verify_degraded) helper_data.resize(helpers.size() * len);
  for (size_t i = 0; i < helpers.size(); ++i) {
    const int h = helpers[i];
    const NodeId node = placement[static_cast<size_t>(h)];
    auto& store = testbed_.store(node);
    if (options_.verify_degraded &&
        !store.read_slice(ChunkRef{chunk.stripe, h}, 0,
                          ec::MutChunk(helper_data.data() + i * len, len))) {
      return false;  // helper read error
    }
    store.charge_io(slice);
    if (auto* inproc = testbed_.inproc()) inproc->charge_tx(node, slice);
    touched.push_back(node);
  }

  if (options_.verify_degraded) {
    std::vector<ec::ConstChunk> spans;
    spans.reserve(helpers.size());
    for (size_t i = 0; i < helpers.size(); ++i) {
      spans.emplace_back(helper_data.data() + i * len, len);
    }
    std::vector<uint8_t> out(len);
    code_.repair_chunk(chunk.index, helpers, spans,
                       ec::MutChunk(out.data(), out.size()));
    std::vector<uint8_t> expected(len);
    if (!testbed_.oracle().read_slice(chunk, 0, expected) ||
        out != expected) {
      verify_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return true;
}

bool ForegroundWorkload::run_op(Rng& rng, std::vector<NodeId>& touched) {
  const ChunkRef chunk = chunks_[zipf_(rng)];
  const NodeId home =
      stripe_nodes_[static_cast<size_t>(chunk.stripe)]
                   [static_cast<size_t>(chunk.index)];
  const int64_t slice = std::min(options_.op_bytes, chunk_bytes_);
  const bool is_read = rng.chance(options_.read_fraction);

  if (is_read) {
    if (node_degraded(home)) {
      degraded_reads_.fetch_add(1, std::memory_order_relaxed);
      return run_degraded_read(chunk, slice, touched);
    }
    reads_.fetch_add(1, std::memory_order_relaxed);
    testbed_.store(home).charge_io(slice);
    if (auto* inproc = testbed_.inproc()) inproc->charge_tx(home, slice);
    touched.push_back(home);
    return true;
  }

  // Writes land on the chunk's home, or on the stripe's first healthy
  // node when the home is degraded (surviving-copy redirect).
  NodeId target = home;
  if (node_degraded(target)) {
    target = cluster::kNoNode;
    for (NodeId n : stripe_nodes_[static_cast<size_t>(chunk.stripe)]) {
      if (!node_degraded(n)) {
        target = n;
        break;
      }
    }
    if (target == cluster::kNoNode) return false;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  testbed_.store(target).charge_io(slice);
  if (auto* inproc = testbed_.inproc()) inproc->charge_rx(target, slice);
  touched.push_back(target);
  return true;
}

void ForegroundWorkload::worker(int index) {
  Rng rng(options_.seed * 7919 + static_cast<uint64_t>(index));
  const double rate = options_.ops_per_sec / options_.threads;
  int64_t scheduled_us = telemetry::trace_now_us();
  std::vector<NodeId> touched;
  while (running_.load(std::memory_order_relaxed)) {
    scheduled_us += exp_gap_us(rng, rate);
    // Sleep in short bounded naps so stop() joins promptly; once behind
    // schedule, no sleeping — the backlog is the open-loop queue whose
    // wait lands in the measured latency.
    while (running_.load(std::memory_order_relaxed)) {
      const int64_t ahead_us = scheduled_us - telemetry::trace_now_us();
      if (ahead_us <= 0) break;
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::min<int64_t>(ahead_us, 5000)));
    }
    if (!running_.load(std::memory_order_relaxed)) break;

    touched.clear();
    const bool ok = run_op(rng, touched);
    if (!ok) {
      failed_ops_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Latency from the SCHEDULED arrival: queueing delay while repair
    // hogs the buckets is the whole point of the measurement.
    const int64_t latency_ns =
        (telemetry::trace_now_us() - scheduled_us) * 1000;
    global_.observe(latency_ns);
    const int64_t per_node_bytes =
        options_.op_bytes / std::max<size_t>(touched.size(), 1);
    for (NodeId node : touched) {
      auto& pn = *nodes_[static_cast<size_t>(node)];
      pn.window.observe(latency_ns);
      pn.bytes.fetch_add(per_node_bytes, std::memory_order_relaxed);
    }
  }
}

agent::NodePressure ForegroundWorkload::sample(NodeId node) {
  agent::NodePressure pressure;
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return pressure;
  const int64_t start = start_us_.load(std::memory_order_relaxed);
  if (start == 0) return pressure;
  auto& pn = *nodes_[static_cast<size_t>(node)];
  pressure.p99_seconds = pn.window.percentile(0.99);
  const double elapsed_s =
      static_cast<double>(telemetry::trace_now_us() - start) / 1e6;
  if (elapsed_s > 0) {
    pressure.fg_bytes_per_sec =
        static_cast<double>(pn.bytes.load(std::memory_order_relaxed)) /
        elapsed_s;
  }
  return pressure;
}

WorkloadStats ForegroundWorkload::stats() const {
  WorkloadStats s;
  s.reads = reads_.load();
  s.writes = writes_.load();
  s.degraded_reads = degraded_reads_.load();
  s.failed_ops = failed_ops_.load();
  s.verify_failures = verify_failures_.load();
  s.p50_seconds = global_.percentile(0.50);
  s.p99_seconds = global_.percentile(0.99);
  s.p999_seconds = global_.percentile(0.999);
  const int64_t start = start_us_.load();
  if (start > 0) {
    const double elapsed_s =
        static_cast<double>(telemetry::trace_now_us() - start) / 1e6;
    if (elapsed_s > 0) {
      s.achieved_ops_per_sec =
          static_cast<double>(global_.count()) / elapsed_s;
    }
  }
  return s;
}

}  // namespace fastpr::load
