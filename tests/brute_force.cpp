#include "brute_force.h"

#include <algorithm>

#include "util/check.h"

namespace fastpr::matching {

namespace {

int recurse(const BipartiteGraph& g, int r, std::vector<bool>& used_left) {
  if (r == g.right_count()) return 0;
  // Option 1: leave right vertex r unmatched.
  int best = recurse(g, r + 1, used_left);
  // Option 2: match r with any free neighbour.
  for (int l : g.right_adj[static_cast<size_t>(r)]) {
    if (used_left[static_cast<size_t>(l)]) continue;
    used_left[static_cast<size_t>(l)] = true;
    best = std::max(best, 1 + recurse(g, r + 1, used_left));
    used_left[static_cast<size_t>(l)] = false;
  }
  return best;
}

}  // namespace

int brute_force_max_matching(const BipartiteGraph& graph) {
  FASTPR_CHECK_MSG(graph.right_count() <= 14,
                   "brute force oracle limited to small graphs");
  std::vector<bool> used_left(static_cast<size_t>(graph.left_count), false);
  return recurse(graph, 0, used_left);
}

}  // namespace fastpr::matching
