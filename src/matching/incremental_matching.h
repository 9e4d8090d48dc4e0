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
// Multi-source capacity extension (DESIGN.md §8): each left vertex may
// carry a capacity > 1, i.e. the node may serve that many helper reads
// per round. Capacities are modelled as per-left slot arrays; with every
// capacity 1 (the default constructor) the behavior is exactly the
// classic one-read-per-node matching.
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
  /// Every left vertex has capacity 1 (one helper read per node).
  explicit IncrementalMatcher(int left_count);

  /// Uniform capacity: every left vertex can absorb `capacity` right
  /// vertices (a node serving `capacity` helper reads per round).
  IncrementalMatcher(int left_count, int capacity);

  /// Per-left-vertex capacities (all >= 1).
  explicit IncrementalMatcher(const std::vector<int>& capacities);

  /// Attempts to add `copies` right vertices sharing `adjacency`
  /// (all-or-nothing). On success they are committed and true returns;
  /// on failure the state is unchanged. `adjacency` must outlive the
  /// matcher (and any copies of it).
  bool try_add_group(const std::vector<int>& adjacency, int copies);

  /// Free slots reachable from `adjacency` by alternating paths, counted
  /// up to `limit` (>= 1). A group of k copies sharing `adjacency` fits
  /// only if this reaches k: its k augmenting paths would end in k
  /// distinct such slots. A cheap necessary test for try_add_group;
  /// never changes the matching. While at most 64 slots are free, the
  /// first call after a change computes every left vertex's reachable
  /// set at once, so later calls on the same matching cost O(|adjacency|).
  int reachable_free_slots(const std::vector<int>& adjacency, int limit);

  /// Number of committed right vertices (all matched).
  int right_count() const { return static_cast<int>(right_adj_.size()); }

  int left_count() const { return left_count_; }

  /// Sum of all left capacities — the most right vertices this matcher
  /// can ever commit.
  int total_capacity() const { return static_cast<int>(slots_.size()); }

  /// Left vertex matched to committed right vertex r.
  int matched_left(int r) const;

  /// Committed right vertices currently matched to left vertex l.
  int matched_count(int l) const;

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
  /// kTooManyFree when more slots are free than a mask has bits.
  void build_reach_masks();

  /// Places r into slot `slot` of left vertex l.
  void place(int r, int l, int slot);

  /// Rebuilds the slot occupancy from match_r_ (used by rollback).
  void refill_slots();

  int left_count_;
  std::vector<const std::vector<int>*> right_adj_;
  /// slots_[slot_offset_[l] .. slot_offset_[l+1]) hold the right
  /// vertices matched to l (-1 = free slot).
  std::vector<int> slot_offset_;
  std::vector<int> slots_;
  std::vector<int> match_r_;  // right → left (always matched once committed)
  /// Left vertex l is visited in the current search iff
  /// visit_stamp_[l] == epoch_, so starting a search costs O(1).
  std::vector<unsigned> visit_stamp_;
  unsigned epoch_ = 0;
  /// Bit b of reach_masks_[l] is set iff the b-th free slot (in slot
  /// order) is reachable from left vertex l by an alternating path.
  /// Valid for the current matching only while masks_ == kReady.
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
