// Incremental bipartite matcher (Kuhn augmenting paths) with rollback.
//
// Algorithm 1 of the paper probes MATCH(R ∪ {Ci}) thousands of times,
// each probe differing from the previous accepted state by one stripe's
// k chunk vertices. Instead of recomputing a maximum matching from
// scratch per probe (the paper's Ford–Fulkerson formulation), this
// matcher keeps the accepted matching and tries to augment once per new
// right vertex; a failed group insertion is rolled back. The result is
// equivalent — a matching saturating all right vertices exists iff the
// augmenting paths exist — but a probe costs O(k·E) instead of O(V·E).
//
// Each left vertex (a helper node) absorbs at most one right vertex (a
// helper read): the paper's one read per node per round.
//
// Adjacency is held BY POINTER: group insertions record a pointer to the
// caller's adjacency vector, which must stay valid for the matcher's
// lifetime (Algorithm 1 caches one adjacency vector per stripe, so this
// also makes copying a matcher — the swap-optimization probe — cheap).
#pragma once

#include <cstdint>
#include <vector>

namespace fastpr::matching {

class IncrementalMatcher {
 public:
  explicit IncrementalMatcher(int left_count);

  /// Attempts to add `copies` right vertices sharing `adjacency`
  /// (all-or-nothing). On success they are committed and true returns;
  /// on failure the state is unchanged. `adjacency` must outlive the
  /// matcher (and any copies of it).
  bool try_add_group(const std::vector<int>& adjacency, int copies);

  /// Free (unmatched) left vertices reachable from `adjacency` by
  /// alternating paths, counted up to `limit` (>= 1). A group of k
  /// copies sharing `adjacency` fits only if this reaches k: its k
  /// augmenting paths would end in k distinct such vertices. A cheap
  /// necessary test for try_add_group; never changes the matching.
  /// While at most 64 left vertices are free, the first call after a
  /// change computes every left vertex's reachable set at once, so later
  /// calls on the same matching cost O(|adjacency|).
  int reachable_free_slots(const std::vector<int>& adjacency, int limit);

  /// Number of committed right vertices (all matched).
  int right_count() const { return static_cast<int>(right_adj_.size()); }

  int left_count() const { return left_count_; }

  /// Left vertex matched to committed right vertex r.
  int matched_left(int r) const;

  /// Drops all committed vertices, keeping the left side.
  void reset();

 private:
  /// Kuhn DFS: find augmenting path from right vertex r.
  bool augment(int r);

  /// Starts a new search: every left vertex becomes unvisited.
  void begin_visit();

  /// Marks left vertex l visited; false if it already was.
  bool visit(int l);

  void check_adjacency(const std::vector<int>& adjacency) const;

  /// Fills reach_masks_ for the current matching, or marks it
  /// kTooManyFree when more left vertices are free than a mask has bits.
  void build_reach_masks();

  int left_count_;
  std::vector<const std::vector<int>*> right_adj_;
  std::vector<int> match_l_;  // left → right (-1 = free)
  std::vector<int> match_r_;  // right → left (always matched once committed)
  /// Left vertex l is visited in the current search iff
  /// visit_stamp_[l] == epoch_, so starting a search costs O(1).
  std::vector<unsigned> visit_stamp_;
  unsigned epoch_ = 0;
  /// Bit b of reach_masks_[l] is set iff the b-th free left vertex (in
  /// index order) is reachable from left vertex l by an alternating
  /// path. Valid for the current matching only while masks_ == kReady.
  enum class Masks { kStale, kReady, kTooManyFree };
  Masks masks_ = Masks::kStale;
  std::vector<uint64_t> reach_masks_;
  /// build_reach_masks' reverse alternating steps as CSR: the left
  /// vertices one step before x are pred_[pred_begin_[x] .. [x+1]).
  std::vector<int> pred_begin_;
  std::vector<int> pred_;
  std::vector<char> queued_;
  std::vector<int> queue_;  // BFS frontier / mask worklist
};

}  // namespace fastpr::matching
