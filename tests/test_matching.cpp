// Bipartite matching: Hopcroft–Karp and the incremental matcher against
// the exhaustive oracle on random graphs; rollback semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>

#include "matching/brute_force.h"
#include "matching/hopcroft_karp.h"
#include "matching/incremental_matching.h"

namespace fastpr::matching {
namespace {

BipartiteGraph random_graph(int left, int right, double edge_prob,
                            std::mt19937& rng) {
  BipartiteGraph g;
  g.left_count = left;
  std::bernoulli_distribution edge(edge_prob);
  for (int r = 0; r < right; ++r) {
    std::vector<int> adj;
    for (int l = 0; l < left; ++l) {
      if (edge(rng)) adj.push_back(l);
    }
    g.add_right_vertex(std::move(adj));
  }
  return g;
}

struct GraphParam {
  int left, right;
  double density;
};

class MatchingOracleTest : public ::testing::TestWithParam<GraphParam> {};

TEST_P(MatchingOracleTest, HopcroftKarpMatchesBruteForce) {
  const auto p = GetParam();
  std::mt19937 rng(1000 + p.left * 31 + p.right);
  for (int trial = 0; trial < 60; ++trial) {
    const auto g = random_graph(p.left, p.right, p.density, rng);
    const auto hk = hopcroft_karp(g);
    EXPECT_TRUE(is_valid_matching(g, hk));
    EXPECT_EQ(hk.size, brute_force_max_matching(g));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatchingOracleTest,
    ::testing::Values(GraphParam{4, 4, 0.3}, GraphParam{6, 6, 0.5},
                      GraphParam{10, 8, 0.25}, GraphParam{5, 10, 0.4},
                      GraphParam{12, 6, 0.15}, GraphParam{8, 8, 0.9}));

TEST(HopcroftKarp, EmptyGraph) {
  BipartiteGraph g;
  g.left_count = 5;
  const auto m = hopcroft_karp(g);
  EXPECT_EQ(m.size, 0);
  EXPECT_TRUE(m.is_perfect_on_right());
}

TEST(HopcroftKarp, IsolatedRightVertices) {
  BipartiteGraph g;
  g.left_count = 3;
  g.add_right_vertex({});
  g.add_right_vertex({0});
  const auto m = hopcroft_karp(g);
  EXPECT_EQ(m.size, 1);
  EXPECT_FALSE(m.is_perfect_on_right());
}

TEST(HopcroftKarp, PerfectMatchingOnCompleteGraph) {
  BipartiteGraph g;
  g.left_count = 6;
  for (int r = 0; r < 6; ++r) g.add_right_vertex({0, 1, 2, 3, 4, 5});
  const auto m = hopcroft_karp(g);
  EXPECT_EQ(m.size, 6);
}

TEST(IncrementalMatcher, GroupAllOrNothing) {
  // Left {0,1}; first group of 2 takes both; a second group must fail
  // and leave the matcher untouched.
  IncrementalMatcher m(2);
  const std::vector<int> adj = {0, 1};
  EXPECT_TRUE(m.try_add_group(adj, 2));
  EXPECT_EQ(m.right_count(), 2);
  EXPECT_FALSE(m.try_add_group(adj, 1));
  EXPECT_EQ(m.right_count(), 2);
  // The committed vertices are still validly matched.
  EXPECT_NE(m.matched_left(0), m.matched_left(1));
}

TEST(IncrementalMatcher, RollbackRestoresSaturation) {
  // Group of 3 over left {0,1,2} with the third vertex unmatchable:
  // rollback must keep the earlier committed group saturated.
  IncrementalMatcher m(3);
  const std::vector<int> adj01 = {0, 1};
  const std::vector<int> adj2 = {2};
  EXPECT_TRUE(m.try_add_group(adj01, 2));  // occupies 0 and 1
  EXPECT_TRUE(m.try_add_group(adj2, 1));   // occupies 2
  const std::vector<int> adj_any = {0, 1, 2};
  EXPECT_FALSE(m.try_add_group(adj_any, 1));
  EXPECT_EQ(m.right_count(), 3);
  std::vector<bool> used(3, false);
  for (int r = 0; r < 3; ++r) {
    const int l = m.matched_left(r);
    ASSERT_GE(l, 0);
    ASSERT_LT(l, 3);
    EXPECT_FALSE(used[static_cast<size_t>(l)]);
    used[static_cast<size_t>(l)] = true;
  }
}

TEST(IncrementalMatcher, AugmentingPathReroutesExisting) {
  // Right A adj {0,1}; right B adj {0}. Insert A (may take 0), then B
  // must succeed by rerouting A to 1 — the augmenting-path property.
  IncrementalMatcher m(2);
  const std::vector<int> adj_a = {0, 1};
  const std::vector<int> adj_b = {0};
  ASSERT_TRUE(m.try_add_group(adj_a, 1));
  EXPECT_TRUE(m.try_add_group(adj_b, 1));
  EXPECT_EQ(m.matched_left(1), 0);
  EXPECT_EQ(m.matched_left(0), 1);
}

TEST(IncrementalMatcher, AgreesWithHopcroftKarpOnRandomGroups) {
  std::mt19937 rng(777);
  for (int trial = 0; trial < 100; ++trial) {
    const int left = 12;
    IncrementalMatcher inc(left);
    BipartiteGraph g;
    g.left_count = left;
    // deque: the matcher holds adjacency by pointer, so the
    // container must not relocate elements on growth.
    std::deque<std::vector<int>> kept_adjacency;

    // Insert random groups; mirror the accepted ones into a plain graph
    // and verify the incremental matcher saturates iff HK does.
    for (int step = 0; step < 8; ++step) {
      std::vector<int> adj;
      for (int l = 0; l < left; ++l) {
        if (rng() % 3 == 0) adj.push_back(l);
      }
      const int copies = 1 + static_cast<int>(rng() % 3);
      // Tentative graph with the group added.
      BipartiteGraph tentative = g;
      for (int c = 0; c < copies; ++c) tentative.add_right_vertex(adj);
      const bool hk_saturates =
          hopcroft_karp(tentative).size == tentative.right_count();

      kept_adjacency.push_back(adj);
      const bool accepted = inc.try_add_group(kept_adjacency.back(), copies);
      EXPECT_EQ(accepted, hk_saturates) << "trial=" << trial;
      if (accepted) g = std::move(tentative);
    }
  }
}

/// Free slots reachable from `adjacency` by alternating paths, by plain
/// BFS over the committed matching — the definition the matcher's
/// cached and uncached answers must both reproduce.
int reference_reachable_free_slots(
    const IncrementalMatcher& m,
    const std::vector<const std::vector<int>*>& right_adj, int capacity,
    const std::vector<int>& adjacency, int limit) {
  std::vector<std::vector<int>> occupants(
      static_cast<size_t>(m.left_count()));
  for (int r = 0; r < m.right_count(); ++r) {
    occupants[static_cast<size_t>(m.matched_left(r))].push_back(r);
  }
  std::vector<char> seen(static_cast<size_t>(m.left_count()), 0);
  std::vector<int> queue;
  for (int l : adjacency) {
    if (!seen[static_cast<size_t>(l)]) {
      seen[static_cast<size_t>(l)] = 1;
      queue.push_back(l);
    }
  }
  int free_slots = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const auto& here = occupants[static_cast<size_t>(queue[head])];
    free_slots += capacity - static_cast<int>(here.size());
    for (int r : here) {
      for (int l : *right_adj[static_cast<size_t>(r)]) {
        if (!seen[static_cast<size_t>(l)]) {
          seen[static_cast<size_t>(l)] = 1;
          queue.push_back(l);
        }
      }
    }
  }
  return std::min(free_slots, limit);
}

TEST(IncrementalMatcher, ReachableFreeSlotsBoundsEveryAcceptedGroup) {
  // Soundness of the prune Algorithm 1 applies before augmenting: k
  // augmenting paths end in k distinct free slots reachable by
  // alternating paths, so whenever a group of k fits, the bound reports
  // at least k. The answer matches a reference BFS — with at most 64
  // slots free (the cached masks), with more (40 nodes x 2 early on,
  // and 100 nodes whose groups all draw on the first 28, saturating
  // them while 72+ slots stay free), and on repeated queries — and
  // leaves the matching as it was.
  struct Shape {
    int left, capacity, span;  // adjacency drawn from [0, span)
  };
  std::mt19937 rng(4242);
  for (const Shape shape : {Shape{10, 1, 10}, Shape{10, 2, 10},
                            Shape{40, 2, 40}, Shape{100, 1, 28}}) {
    SCOPED_TRACE("left=" + std::to_string(shape.left) +
                 " capacity=" + std::to_string(shape.capacity) +
                 " span=" + std::to_string(shape.span));
    int accepted = 0;
    int bounded_out = 0;
    for (int trial = 0; trial < 60; ++trial) {
      IncrementalMatcher m(shape.left, shape.capacity);
      std::deque<std::vector<int>> kept_adjacency;
      std::vector<const std::vector<int>*> right_adj;
      for (int step = 0; step < 3 * shape.left; ++step) {
        std::vector<int> adj;
        for (int l = 0; l < shape.span; ++l) {
          if (rng() % 4 == 0) adj.push_back(l);
        }
        if (adj.empty()) adj.push_back(static_cast<int>(rng() % shape.span));
        kept_adjacency.push_back(adj);
        const auto& group = kept_adjacency.back();
        const int copies = 1 + static_cast<int>(rng() % 3);

        std::vector<int> before;
        for (int r = 0; r < m.right_count(); ++r) {
          before.push_back(m.matched_left(r));
        }
        const int expected = reference_reachable_free_slots(
            m, right_adj, shape.capacity, group, copies);
        EXPECT_EQ(m.reachable_free_slots(group, copies), expected);
        EXPECT_EQ(m.reachable_free_slots(group, copies), expected);
        for (int r = 0; r < m.right_count(); ++r) {
          EXPECT_EQ(m.matched_left(r), before[static_cast<size_t>(r)]);
        }

        IncrementalMatcher probe = m;
        if (probe.try_add_group(group, copies)) {
          EXPECT_GE(expected, copies) << "trial=" << trial;
          m = probe;
          right_adj.insert(right_adj.end(), static_cast<size_t>(copies),
                           &group);
          ++accepted;
        } else if (expected < copies) {
          ++bounded_out;
        }
      }
    }
    // Both outcomes occur, so the property is not vacuous.
    EXPECT_GT(accepted, 100);
    EXPECT_GT(bounded_out, 100);
  }
}

TEST(IncrementalMatcher, ResetClears) {
  IncrementalMatcher m(4);
  const std::vector<int> adj = {0, 1, 2, 3};
  EXPECT_TRUE(m.try_add_group(adj, 4));
  m.reset();
  EXPECT_EQ(m.right_count(), 0);
  EXPECT_TRUE(m.try_add_group(adj, 4));
}

}  // namespace
}  // namespace fastpr::matching
