// Exponential exact maximum matching for small graphs.
//
// Test oracle: property suites compare Hopcroft–Karp and the
// incremental matcher against this on randomly generated graphs.
#pragma once

#include "matching/bipartite_graph.h"

namespace fastpr::matching {

/// Exact maximum matching size by exhaustive search. Only call with
/// right_count() <= ~12.
int brute_force_max_matching(const BipartiteGraph& graph);

}  // namespace fastpr::matching
