// Figure 15 (Experiment B.5): microbenchmarks on Algorithm 1.
// (a) reduction of d_opt (with the swap optimization) vs d_ini
//     (greedy only), varying the number of repaired chunks |C|;
// (b) running time of Algorithm 1 vs |C|, to the paper's 1000 chunks
//     (254.63 s on an EC2 m5.large), with the MATCH calls made and how
//     many of them the reachability bound answered without augmenting;
// plus the §IV-D chunk-grouping mitigation at |C|=500.
//
// `--smoke` runs (a) at |C| <= 200 only, asserts d_opt <= d_ini and the
// pinned set counts below, and prints no timings; CI runs it in the
// release job.
#include <chrono>
#include <cstring>

#include "bench_common.h"
#include "core/recon_sets.h"
#include "util/rng.h"

using namespace fastpr;
using cluster::NodeId;
using cluster::StripeLayout;

namespace {

/// Layout where the STF node (0) stores exactly `num_chunks` chunks:
/// every stripe pins node 0 plus n-1 random others.
StripeLayout pinned_layout(int num_nodes, int n, int num_chunks, Rng& rng) {
  StripeLayout layout(num_nodes, n);
  for (int s = 0; s < num_chunks; ++s) {
    std::vector<NodeId> nodes = {0};
    const auto picks = rng.sample_distinct(num_nodes - 1, n - 1);
    for (int p : picks) nodes.push_back(p + 1);
    layout.add_stripe(nodes);
  }
  return layout;
}

std::vector<NodeId> healthy(int num_nodes) {
  std::vector<NodeId> nodes;
  for (NodeId i = 1; i < num_nodes; ++i) nodes.push_back(i);
  return nodes;
}

const int kM = 100;
const int kN = 9, kK = 6;

/// Set counts (d_ini, d_opt) of part (a)'s layouts, per |C| and seed.
/// Algorithm 1 is deterministic, so any change to them is a change to
/// its output.
struct PinnedCounts {
  int chunks;
  uint64_t seed;
  size_t d_ini, d_opt;
};
constexpr PinnedCounts kPinned[] = {
    {100, 1, 10, 9},  {100, 2, 9, 9},   {100, 3, 10, 9},
    {200, 1, 19, 16}, {200, 2, 18, 15}, {200, 3, 18, 16},
};

/// Part (a) over `sizes`; false when a d_opt exceeds its d_ini or a
/// count differs from kPinned.
bool reduction_table(std::initializer_list<int> sizes) {
  std::printf("(a) reduction of d_opt vs d_ini (avg over 3 runs)\n");
  Table t({"|C|", "d_ini", "d_opt", "reduction"});
  bool ok = true;
  for (int chunks : sizes) {
    double dini_sum = 0, dopt_sum = 0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 101);
      const auto layout = pinned_layout(kM, kN, chunks, rng);
      core::ReconSetOptions on, off;
      on.optimize = true;
      off.optimize = false;
      const size_t d_opt =
          core::find_reconstruction_sets(layout, 0, healthy(kM), kK, on)
              .size();
      const size_t d_ini =
          core::find_reconstruction_sets(layout, 0, healthy(kM), kK, off)
              .size();
      if (d_opt > d_ini) {
        std::printf("FAIL: |C|=%d seed %llu: d_opt %zu > d_ini %zu\n",
                    chunks, static_cast<unsigned long long>(seed), d_opt,
                    d_ini);
        ok = false;
      }
      for (const PinnedCounts& pin : kPinned) {
        if (pin.chunks != chunks || pin.seed != seed) continue;
        if (pin.d_ini != d_ini || pin.d_opt != d_opt) {
          std::printf("FAIL: |C|=%d seed %llu: sets %zu/%zu, pinned %zu/%zu\n",
                      chunks, static_cast<unsigned long long>(seed), d_ini,
                      d_opt, pin.d_ini, pin.d_opt);
          ok = false;
        }
      }
      dopt_sum += static_cast<double>(d_opt);
      dini_sum += static_cast<double>(d_ini);
    }
    t.add_row({std::to_string(chunks), Table::fmt(dini_sum / 3, 1),
               Table::fmt(dopt_sum / 3, 1),
               Table::fmt(100.0 * (1.0 - dopt_sum / dini_sum), 1) + "%"});
  }
  t.print();
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    const bool ok = reduction_table({100, 200});
    std::printf("bench_fig15_microbench --smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  std::printf("=== Figure 15 (Exp B.5): Algorithm 1 microbenchmarks ===\n");
  std::printf("M=%d nodes, RS(%d,%d); STF node pinned into every stripe\n\n",
              kM, kN, kK);

  if (!reduction_table({100, 200, 300, 400, 500})) {
    return 1;
  }
  std::printf("paper: d_opt ~13%% below d_ini, stable beyond 200 chunks\n");

  {
    std::printf("\n(b) running time of Algorithm 1 (one run per point)\n");
    Table t({"|C|", "time (s)", "match calls", "pruned"});
    for (int chunks : {100, 200, 300, 400, 500, 750, 1000}) {
      Rng rng(7);
      const auto layout = pinned_layout(kM, kN, chunks, rng);
      core::ReconSetStats stats;
      const auto start = std::chrono::steady_clock::now();
      (void)core::find_reconstruction_sets(layout, 0, healthy(kM), kK, {},
                                           &stats);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      t.add_row({std::to_string(chunks), Table::fmt(secs, 2),
                 std::to_string(stats.match_calls),
                 std::to_string(stats.pruned)});
    }
    t.print();
    std::printf(
        "paper: 0.84 s at 100 chunks growing superlinearly to 254.63 s at "
        "1000 (their EC2 instance)\n");
  }

  {
    std::printf("\n(extra) §IV-D chunk-grouping mitigation at |C|=500\n");
    Table t({"group size", "time (s)", "sets"});
    for (int group : {0, 250, 100, 50}) {
      Rng rng(7);
      const auto layout = pinned_layout(kM, kN, 500, rng);
      core::ReconSetOptions opts;
      opts.chunk_group_size = group;
      const auto start = std::chrono::steady_clock::now();
      const auto sets = core::find_reconstruction_sets(layout, 0,
                                                       healthy(kM), kK, opts);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      t.add_row({group == 0 ? "all" : std::to_string(group),
                 Table::fmt(secs, 2), std::to_string(sets.size())});
    }
    t.print();
    std::printf(
        "grouping trades a few extra reconstruction sets for a much "
        "smaller planning time, as §IV-D suggests\n");
  }
  return 0;
}
