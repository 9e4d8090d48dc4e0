// Chunk-placement metadata: which node stores chunk (stripe, index).
//
// This plays the role of the HDFS NameNode metadata the paper's
// coordinator reads via `hdfs fsck` — the planner's only window into the
// cluster. Placement keeps the stripe-distinctness invariant (a stripe's
// n chunks live on n distinct nodes) at all times.
#pragma once

#include <vector>

#include "cluster/types.h"
#include "util/rng.h"

namespace fastpr::cluster {

class StripeLayout {
 public:
  /// Empty layout over `num_nodes` nodes, chunks per stripe = n.
  StripeLayout(int num_nodes, int chunks_per_stripe);

  /// Random declustered placement: each of `num_stripes` stripes is
  /// placed on n distinct nodes chosen uniformly at random (the paper's
  /// "randomly distribute 1,000 stripes" setup).
  static StripeLayout random(int num_nodes, int chunks_per_stripe,
                             int num_stripes, Rng& rng);

  /// Random rack-disjoint placement: like random(), but no two chunks
  /// of a stripe land in the same rack of `nodes_per_rack` contiguous
  /// nodes (the block mapping of net::Topology — this layer stays
  /// net-agnostic and takes the rack size as a plain int). Requires at
  /// least n racks. Each stripe picks n distinct racks uniformly, then
  /// one node uniformly within each.
  static StripeLayout random_racked(int num_nodes, int chunks_per_stripe,
                                    int num_stripes, int nodes_per_rack,
                                    Rng& rng);

  int num_nodes() const { return num_nodes_; }
  int chunks_per_stripe() const { return chunks_per_stripe_; }
  int num_stripes() const { return static_cast<int>(stripe_nodes_.size()); }
  int total_chunks() const { return num_stripes() * chunks_per_stripe_; }

  /// Appends a stripe placed on the given distinct nodes; returns its id.
  StripeId add_stripe(const std::vector<NodeId>& nodes);

  /// Node storing chunk `index` of `stripe`.
  NodeId node_of(ChunkRef chunk) const;

  /// All n nodes of a stripe, by chunk index.
  const std::vector<NodeId>& stripe_nodes(StripeId stripe) const;

  /// Chunks currently stored on `node` (unordered).
  const std::vector<ChunkRef>& chunks_on(NodeId node) const;

  /// Number of chunks on `node`.
  int load(NodeId node) const;

  /// True iff `node` stores some chunk of `stripe`.
  bool stripe_uses_node(StripeId stripe, NodeId node) const;

  /// Relocates a chunk to `dst`. Enforces stripe-distinctness: dst must
  /// not already hold a chunk of the same stripe (unless it is the chunk
  /// being moved). Used when applying repair plans and by the rebalancer.
  void move_chunk(ChunkRef chunk, NodeId dst);

  /// Validates internal consistency and the distinctness invariant;
  /// throws CheckFailure on violation. Tests call this after mutations.
  void check_invariants() const;

 private:
  int num_nodes_;
  int chunks_per_stripe_;
  /// stripe_nodes_[s][i] = node storing chunk i of stripe s.
  std::vector<std::vector<NodeId>> stripe_nodes_;
  /// node_chunks_[node] = chunks stored on node (derived index).
  std::vector<std::vector<ChunkRef>> node_chunks_;
};

}  // namespace fastpr::cluster
