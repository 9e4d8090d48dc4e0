// Algorithm 1 of the paper: partition the STF node's chunks into
// reconstruction sets.
//
// A reconstruction set R is a group of STF chunks whose k·|R| helper
// chunks can be fetched from k·|R| DISTINCT healthy nodes in one round
// (at most one read per node). Membership is tested by bipartite
// matching (MATCH); FIND greedily grows an initial set and then runs the
// paper's swap-based optimization (Lines 18–38) that trades one member
// for an outsider whenever that unlocks a net gain of chunks. The swap
// search skips every MATCH call whose outcome is already known
// (DESIGN.md §5d), so it returns exactly the sets of the full search.
#pragma once

#include <vector>

#include "cluster/stripe_layout.h"
#include "cluster/types.h"
#include "ec/erasure_code.h"
#include "net/topology.h"

namespace fastpr::core {

struct ReconSetOptions {
  /// Run the swap optimization (Lines 18–38). Disabling it yields the
  /// d_ini baseline of Experiment B.5.
  bool optimize = true;
  /// §IV-D mitigation: partition C into groups of this size and find
  /// sets per group (0 = process all chunks at once).
  int chunk_group_size = 0;
  /// Upper bound on a set's size beyond the matching-derived
  /// floor((M-1)/k). The scattered-repair planner caps sets so that a
  /// round always admits a destination matching (Hall: M - n >= cm + cr).
  /// 0 = no extra cap.
  int max_set_size = 0;
  /// Rack topology (DESIGN.md §11). When it names more than one rack,
  /// each chunk's helper candidates are rack-interleaved (round-robin
  /// over racks) so the matcher — which prefers earlier adjacency
  /// entries — spreads a set's helper reads over rack uplinks. Pure
  /// preference: the candidate SET is unchanged, so feasibility and
  /// maximality of Algorithm 1 are untouched, and a flat/absent
  /// topology leaves the ordering bit-identical to the legacy code.
  const net::Topology* topology = nullptr;
  /// Helpers to avoid when possible (e.g. nodes behind a degraded link
  /// at bandwidth-replan time): ordered last in every adjacency list, so
  /// they serve reads only when no other candidate keeps the matching
  /// saturating. Preference only, same guarantee as `topology`.
  std::vector<cluster::NodeId> deprioritized;
};

/// Counters for the microbenchmarks.
struct ReconSetStats {
  long match_calls = 0;  // MATCH invocations
  long pruned = 0;       // MATCH calls the reachability bound answered
  long swaps = 0;        // accepted swap optimizations
  long sweep_adds = 0;   // chunks added by the post-swap maximality sweep
};

/// Returns reconstruction sets covering every chunk the STF node stores,
/// ordered as found. `healthy_sources` are the nodes eligible to serve
/// helper reads (healthy storage nodes, excluding the STF node). Each
/// chunk's helper count and candidate set come from `code`
/// (repair_fetch_count / helper_candidates): k of the stripe's other
/// chunks for RS, the local group for LRC. A set holds at most
/// floor(sources / code.repair_fetch_count(0)) chunks.
std::vector<std::vector<cluster::ChunkRef>> find_reconstruction_sets(
    const cluster::StripeLayout& layout, cluster::NodeId stf,
    const std::vector<cluster::NodeId>& healthy_sources,
    const ec::ErasureCode& code, const ReconSetOptions& options = {},
    ReconSetStats* stats = nullptr);

/// Generalized form over an explicit chunk list (multi-failure reactive
/// repair partitions the union of several nodes' lost chunks).
/// `healthy_sources` must exclude every node whose chunks are lost
/// (CheckFailure otherwise).
std::vector<std::vector<cluster::ChunkRef>> find_reconstruction_sets_for(
    std::vector<cluster::ChunkRef> chunks,
    const cluster::StripeLayout& layout,
    const std::vector<cluster::NodeId>& healthy_sources,
    const ec::ErasureCode& code, const ReconSetOptions& options = {},
    ReconSetStats* stats = nullptr);

/// Checks that `set` is a valid reconstruction set (the saturating
/// matching exists). Exposed for tests.
bool is_valid_reconstruction_set(const cluster::StripeLayout& layout,
                                 cluster::NodeId stf,
                                 const std::vector<cluster::NodeId>& healthy,
                                 const ec::ErasureCode& code,
                                 const std::vector<cluster::ChunkRef>& set);

}  // namespace fastpr::core
