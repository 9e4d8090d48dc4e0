#include "cluster/stripe_layout.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace fastpr::cluster {

StripeLayout::StripeLayout(int num_nodes, int chunks_per_stripe)
    : num_nodes_(num_nodes),
      chunks_per_stripe_(chunks_per_stripe),
      node_chunks_(static_cast<size_t>(num_nodes)) {
  FASTPR_CHECK(num_nodes >= 1);
  FASTPR_CHECK_MSG(chunks_per_stripe >= 1 && chunks_per_stripe <= num_nodes,
                   "a stripe needs n distinct nodes");
}

StripeLayout StripeLayout::random(int num_nodes, int chunks_per_stripe,
                                  int num_stripes, Rng& rng) {
  StripeLayout layout(num_nodes, chunks_per_stripe);
  for (int s = 0; s < num_stripes; ++s) {
    const auto picks = rng.sample_distinct(num_nodes, chunks_per_stripe);
    std::vector<NodeId> nodes(picks.begin(), picks.end());
    layout.add_stripe(nodes);
  }
  return layout;
}

StripeLayout StripeLayout::random_racked(int num_nodes,
                                         int chunks_per_stripe,
                                         int num_stripes, int nodes_per_rack,
                                         Rng& rng) {
  FASTPR_CHECK(nodes_per_rack >= 1);
  const int racks = num_nodes / nodes_per_rack;
  FASTPR_CHECK_MSG(racks >= chunks_per_stripe,
                   "rack-disjoint placement needs >= n racks: "
                       << racks << " racks of " << nodes_per_rack
                       << " for n=" << chunks_per_stripe);
  StripeLayout layout(num_nodes, chunks_per_stripe);
  for (int s = 0; s < num_stripes; ++s) {
    const auto rack_picks = rng.sample_distinct(racks, chunks_per_stripe);
    std::vector<NodeId> nodes;
    nodes.reserve(static_cast<size_t>(chunks_per_stripe));
    for (int rack : rack_picks) {
      const int base = rack * nodes_per_rack;
      // A partial trailing rack (num_nodes not divisible) is smaller.
      const int size = std::min(nodes_per_rack, num_nodes - base);
      nodes.push_back(base + static_cast<int>(rng.uniform(0, size - 1)));
    }
    layout.add_stripe(nodes);
  }
  return layout;
}

StripeId StripeLayout::add_stripe(const std::vector<NodeId>& nodes) {
  FASTPR_CHECK(static_cast<int>(nodes.size()) == chunks_per_stripe_);
  std::unordered_set<NodeId> distinct(nodes.begin(), nodes.end());
  FASTPR_CHECK_MSG(static_cast<int>(distinct.size()) == chunks_per_stripe_,
                   "stripe nodes must be distinct");
  for (NodeId node : nodes) {
    FASTPR_CHECK(node >= 0 && node < num_nodes_);
  }
  const StripeId id = static_cast<StripeId>(stripe_nodes_.size());
  stripe_nodes_.push_back(nodes);
  for (int i = 0; i < chunks_per_stripe_; ++i) {
    node_chunks_[static_cast<size_t>(nodes[static_cast<size_t>(i)])]
        .push_back(ChunkRef{id, i});
  }
  return id;
}

NodeId StripeLayout::node_of(ChunkRef chunk) const {
  FASTPR_CHECK(chunk.stripe >= 0 && chunk.stripe < num_stripes());
  FASTPR_CHECK(chunk.index >= 0 && chunk.index < chunks_per_stripe_);
  return stripe_nodes_[static_cast<size_t>(chunk.stripe)]
                      [static_cast<size_t>(chunk.index)];
}

const std::vector<NodeId>& StripeLayout::stripe_nodes(StripeId stripe) const {
  FASTPR_CHECK(stripe >= 0 && stripe < num_stripes());
  return stripe_nodes_[static_cast<size_t>(stripe)];
}

const std::vector<ChunkRef>& StripeLayout::chunks_on(NodeId node) const {
  FASTPR_CHECK(node >= 0 && node < num_nodes_);
  return node_chunks_[static_cast<size_t>(node)];
}

int StripeLayout::load(NodeId node) const {
  return static_cast<int>(chunks_on(node).size());
}

bool StripeLayout::stripe_uses_node(StripeId stripe, NodeId node) const {
  const auto& nodes = stripe_nodes(stripe);
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

void StripeLayout::move_chunk(ChunkRef chunk, NodeId dst) {
  FASTPR_CHECK(dst >= 0 && dst < num_nodes_);
  const NodeId src = node_of(chunk);
  if (src == dst) return;
  FASTPR_CHECK_MSG(!stripe_uses_node(chunk.stripe, dst),
                   "destination already holds a chunk of stripe "
                       << chunk.stripe);
  stripe_nodes_[static_cast<size_t>(chunk.stripe)]
               [static_cast<size_t>(chunk.index)] = dst;
  auto& src_list = node_chunks_[static_cast<size_t>(src)];
  const auto it = std::find(src_list.begin(), src_list.end(), chunk);
  FASTPR_CHECK(it != src_list.end());
  src_list.erase(it);
  node_chunks_[static_cast<size_t>(dst)].push_back(chunk);
}

void StripeLayout::check_invariants() const {
  // Distinctness per stripe + index consistency.
  size_t total = 0;
  for (StripeId s = 0; s < num_stripes(); ++s) {
    const auto& nodes = stripe_nodes_[static_cast<size_t>(s)];
    std::unordered_set<NodeId> distinct(nodes.begin(), nodes.end());
    FASTPR_CHECK_MSG(distinct.size() == nodes.size(),
                     "stripe " << s << " co-locates chunks");
  }
  for (NodeId node = 0; node < num_nodes_; ++node) {
    for (ChunkRef c : node_chunks_[static_cast<size_t>(node)]) {
      FASTPR_CHECK_MSG(node_of(c) == node, "index out of sync");
      ++total;
    }
  }
  FASTPR_CHECK(total == static_cast<size_t>(total_chunks()));
}

}  // namespace fastpr::cluster
