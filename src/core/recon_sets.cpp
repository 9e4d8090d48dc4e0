#include "core/recon_sets.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "matching/incremental_matching.h"
#include "util/check.h"

namespace fastpr::core {

namespace {

using cluster::ChunkRef;
using cluster::NodeId;
using cluster::StripeLayout;
using matching::IncrementalMatcher;

/// Shared context: node→left-index mapping and per-stripe adjacency.
class MatchContext {
 public:
  MatchContext(const StripeLayout& layout,
               const std::vector<NodeId>& healthy,
               const ec::ErasureCode& code, int max_set_size,
               ReconSetStats* stats, const net::Topology* topology = nullptr,
               const std::vector<NodeId>* deprioritized = nullptr)
      : layout_(layout),
        max_set_size_(max_set_size),
        stats_(stats),
        code_(code),
        healthy_(healthy) {
    left_of_node_.reserve(healthy.size());
    for (size_t i = 0; i < healthy.size(); ++i) {
      left_of_node_[healthy[i]] = static_cast<int>(i);
    }
    left_count_ = static_cast<int>(healthy.size());
    if (topology != nullptr && !topology->is_flat()) topology_ = topology;
    if (deprioritized != nullptr && !deprioritized->empty()) {
      deprioritized_.insert(deprioritized->begin(), deprioritized->end());
    }
  }

  bool is_source(NodeId node) const { return left_of_node_.count(node) > 0; }

  /// Fresh matcher over the source nodes, one helper read each.
  IncrementalMatcher make_matcher() const {
    return IncrementalMatcher(left_count_);
  }

  /// Helper chunks this particular chunk's repair fetches.
  int fetch_count(ChunkRef chunk) const {
    return code_.repair_fetch_count(chunk.index);
  }

  /// Max chunks any reconstruction set can hold: floor(sources/k') (the
  /// paper's floor((M-1)/k)), further capped by the planner's
  /// destination-feasibility bound.
  int capacity() const {
    const int matching_cap = left_count_ / code_.repair_fetch_count(0);
    return max_set_size_ > 0 ? std::min(matching_cap, max_set_size_)
                             : matching_cap;
  }

  /// Adjacency of one helper slot for `chunk`: left indices of eligible
  /// nodes storing a VALID helper chunk (code-aware for LRC locality;
  /// excludes nodes outside the healthy source list).
  const std::vector<int>& slot_adjacency(ChunkRef chunk) {
    auto it = chunk_adj_.find(chunk);
    if (it != chunk_adj_.end()) return it->second;
    const auto& nodes = layout_.stripe_nodes(chunk.stripe);
    std::vector<int> adj;
    auto consider = [&](NodeId node) {
      const auto li = left_of_node_.find(node);
      if (li != left_of_node_.end()) adj.push_back(li->second);
    };
    for (int idx : code_.helper_candidates(chunk.index)) {
      consider(nodes[static_cast<size_t>(idx)]);
    }
    FASTPR_CHECK_MSG(static_cast<int>(adj.size()) >= fetch_count(chunk),
                     "stripe " << chunk.stripe
                               << " has fewer than k' healthy sources");
    reorder_preference(adj);
    return chunk_adj_.emplace(chunk, std::move(adj)).first->second;
  }

  /// The MATCH function: can `chunk` join the set held by `matcher`?
  /// On success the k slot vertices stay committed.
  bool try_match(IncrementalMatcher& matcher, ChunkRef chunk) {
    const std::vector<int>* adj = screen(matcher, chunk);
    // Chunk adjacency is cached in chunk_adj_ (stable storage), so the
    // matcher may hold it by pointer.
    return adj != nullptr && matcher.try_add_group(*adj, fetch_count(chunk));
  }

  /// MATCH(set of `held` ∪ {chunk}), leaving `held` unchanged: the
  /// group is tried on `probe`, overwritten with a copy of `held` only
  /// when the cheap tests pass (assignment reuses probe's storage).
  bool fits(IncrementalMatcher& held, IncrementalMatcher& probe,
            ChunkRef chunk) {
    const std::vector<int>* adj = screen(held, chunk);
    if (adj == nullptr) return false;
    probe = held;
    return probe.try_add_group(*adj, fetch_count(chunk));
  }

 private:
  /// Counts one MATCH call and answers the provable failures without
  /// augmenting: fewer than k' source nodes left unmatched, or fewer
  /// than k' free nodes reachable by alternating paths (the k'
  /// augmenting paths would need k' distinct ones). Returns the chunk's
  /// adjacency when the matcher must decide, nullptr when MATCH fails.
  const std::vector<int>* screen(IncrementalMatcher& matcher,
                                 ChunkRef chunk) {
    if (stats_ != nullptr) ++stats_->match_calls;
    const int k_this = fetch_count(chunk);
    if (matcher.right_count() + k_this > matcher.left_count()) {
      return nullptr;
    }
    const std::vector<int>& adj = slot_adjacency(chunk);
    if (matcher.reachable_free_slots(adj, k_this) < k_this) {
      if (stats_ != nullptr) ++stats_->pruned;
      return nullptr;
    }
    return &adj;
  }

  /// Preference-only adjacency reorder (DESIGN.md §11): deprioritized
  /// helpers sink to the back; with a rack topology the rest are
  /// round-robin interleaved by rack so the matcher's earlier-first
  /// preference spreads reads over rack uplinks. No entry is ever added
  /// or dropped, and with neither knob set the list is left untouched —
  /// flat runs stay bit-identical.
  void reorder_preference(std::vector<int>& adj) const {
    if (topology_ == nullptr && deprioritized_.empty()) return;
    const auto avoided = [&](int left) {
      return deprioritized_.count(healthy_[static_cast<size_t>(left)]) > 0;
    };
    std::stable_partition(adj.begin(), adj.end(),
                          [&](int left) { return !avoided(left); });
    if (topology_ == nullptr) return;
    const auto preferred_end =
        std::find_if(adj.begin(), adj.end(), avoided);
    // Bucket the preferred prefix by rack (stable), then deal the
    // buckets out round-robin.
    std::map<int, std::vector<int>> by_rack;
    for (auto it = adj.begin(); it != preferred_end; ++it) {
      by_rack[topology_->rack_of(healthy_[static_cast<size_t>(*it)])]
          .push_back(*it);
    }
    auto out = adj.begin();
    size_t depth = 0;
    bool emitted = true;
    while (emitted) {
      emitted = false;
      for (auto& [rack, lefts] : by_rack) {
        (void)rack;
        if (depth < lefts.size()) {
          *out++ = lefts[depth];
          emitted = true;
        }
      }
      ++depth;
    }
  }

  const StripeLayout& layout_;
  int max_set_size_;
  ReconSetStats* stats_;
  const ec::ErasureCode& code_;
  std::vector<NodeId> healthy_;
  const net::Topology* topology_ = nullptr;
  std::unordered_set<NodeId> deprioritized_;
  int left_count_ = 0;
  std::unordered_map<NodeId, int> left_of_node_;
  std::unordered_map<ChunkRef, std::vector<int>, cluster::ChunkRefHash>
      chunk_adj_;
};

/// The FIND function of Algorithm 1, holding the matchers and buffers
/// that every set of one search reuses.
///
/// The swap search (Lines 18–38) is pruned exactly: it reads nothing but
/// MATCH outcomes, and MATCH depends only on the candidate set, never on
/// the matching found, so skipping calls whose outcome is already known
/// returns the same sets as probing every (i, j, l).
class SetFinder {
 public:
  SetFinder(MatchContext& ctx, bool optimize, ReconSetStats* stats)
      : ctx_(ctx),
        optimize_(optimize),
        stats_(stats),
        committed_(ctx.make_matcher()),
        base_(ctx.make_matcher()),
        probe_(ctx.make_matcher()) {}

  /// Extracts one reconstruction set from `chunks` (removing its
  /// members) and returns it.
  std::vector<ChunkRef> find_one_set(std::vector<ChunkRef>& chunks) {
    const size_t cap = static_cast<size_t>(ctx_.capacity());
    std::vector<ChunkRef> r;
    committed_.reset();

    // Lines 10–17: greedy initial set.
    add_fitting(r, chunks);

    // Lines 18–38: swap optimization. Skipped when the set already has
    // the maximum conceivable size — no swap can grow it further.
    long swaps_committed = 0;
    while (optimize_ && !chunks.empty() && r.size() < cap) {
      size_t best_i = 0;
      ChunkRef best_j;
      if (!find_best_swap(r, chunks, best_i, best_j)) {
        break;  // Line 36: no further expansion
      }
      ++swaps_committed;
      if (stats_ != nullptr) ++stats_->swaps;

      // Lines 33–35: commit the swap. Ci* returns to the residual pool,
      // Cj* and the gain set join R.
      const ChunkRef swapped_out = r[best_i];
      r.erase(r.begin() + static_cast<ptrdiff_t>(best_i));
      r.push_back(best_j);
      r.insert(r.end(), best_gain_.begin(), best_gain_.end());
      std::erase_if(chunks, [&](ChunkRef c) {
        return c == best_j || std::find(best_gain_.begin(), best_gain_.end(),
                                        c) != best_gain_.end();
      });
      chunks.push_back(swapped_out);

      // Rebuild the committed matcher to reflect the new R.
      committed_.reset();
      for (ChunkRef c : r) {
        FASTPR_CHECK_MSG(ctx_.try_match(committed_, c),
                         "swap produced an inconsistent reconstruction set");
      }
    }

    // Maximality sweep: a committed swap replays the residual pool
    // against a different matching than the greedy pass saw, so a
    // residual chunk skipped in Lines 24–29 of the LAST accepted swap
    // (the gain scan stops at the cap or at chunks preceding the swap
    // target) may still fit. One pure-addition pass restores the greedy
    // invariant — every residual chunk provably fails MATCH(R ∪ {C}) —
    // without touching the zero-swap output, which already has it.
    if (swaps_committed > 0) {
      const size_t before = r.size();
      add_fitting(r, chunks);
      if (stats_ != nullptr) {
        stats_->sweep_adds += static_cast<long>(r.size() - before);
      }
    }

    FASTPR_CHECK_MSG(!r.empty(),
                     "FIND produced an empty reconstruction set — some "
                     "chunk has no k healthy sources");
    return r;
  }

 private:
  /// Moves every chunk of `chunks` that still fits the committed matcher
  /// into `r`, in order, while `r` is below the cap.
  void add_fitting(std::vector<ChunkRef>& r, std::vector<ChunkRef>& chunks) {
    const size_t cap = static_cast<size_t>(ctx_.capacity());
    std::vector<ChunkRef> residual;
    residual.reserve(chunks.size());
    for (ChunkRef c : chunks) {
      if (r.size() < cap && ctx_.try_match(committed_, c)) {
        r.push_back(c);
      } else {
        residual.push_back(c);
      }
    }
    chunks.swap(residual);
  }

  /// Lines 19–32: the swap (Ci out, Cj in) whose probe R' = R − {Ci} ∪
  /// {Cj} admits the largest gain set of residual chunks, first in (i, j)
  /// order among equals. Leaves the gain set in best_gain_; false when no
  /// swap gains anything.
  bool find_best_swap(const std::vector<ChunkRef>& r,
                      const std::vector<ChunkRef>& chunks, size_t& best_i,
                      ChunkRef& best_j) {
    const size_t cap = static_cast<size_t>(ctx_.capacity());
    const size_t max_gain = cap - r.size();
    best_gain_.clear();
    for (size_t i = 0; i < r.size() && best_gain_.size() < max_gain; ++i) {
      // Base matcher over R − {Ci}, shared by every probe of this i.
      base_.reset();
      for (size_t t = 0; t < r.size(); ++t) {
        if (t != i) FASTPR_CHECK(ctx_.try_match(base_, r[t]));
      }
      // F_i: the residual chunks that fit R − {Ci}. MATCH is monotone —
      // a chunk failing R − {Ci} fails every larger probe — so the
      // swap-in Cj and every gain Cl come from F_i alone.
      fit_.clear();
      for (ChunkRef c : chunks) {
        if (ctx_.fits(base_, probe_, c)) fit_.push_back(c);
      }
      // A gain set of this i lies in F_i − {Cj}, and only a strictly
      // larger one replaces the best.
      const size_t f = fit_.size();
      if (f <= best_gain_.size() + 1) continue;
      // pair_failed_[a·f + b], a < b: MATCH(R − {Ci} ∪ {Fa, Fb}) failed,
      // learnt while a gain set was still empty. The test is symmetric,
      // so the probe of Fb skips Fa at any later gain.
      pair_failed_.assign(f * f, false);
      for (size_t a = 0; a < f; ++a) {
        FASTPR_CHECK(ctx_.fits(base_, probe_, fit_[a]));
        // Grow R' with whatever residual chunks now fit (Lines 24–29).
        gain_.clear();
        for (size_t b = 0; b < f; ++b) {
          if (b == a) continue;
          // |R'| = |R| + gains; stop once the set-size cap is reached.
          if (r.size() + gain_.size() >= cap) break;
          const size_t pair = std::min(a, b) * f + std::max(a, b);
          if (pair_failed_[pair]) continue;
          if (ctx_.try_match(probe_, fit_[b])) {
            gain_.push_back(fit_[b]);
          } else if (gain_.empty()) {
            pair_failed_[pair] = true;
          }
        }
        if (gain_.size() > best_gain_.size()) {
          best_i = i;
          best_j = fit_[a];
          best_gain_ = gain_;
          if (best_gain_.size() >= max_gain) break;
        }
      }
    }
    return !best_gain_.empty();
  }

  MatchContext& ctx_;
  bool optimize_;
  ReconSetStats* stats_;
  IncrementalMatcher committed_;  // the set being built
  IncrementalMatcher base_;       // R − {Ci}
  IncrementalMatcher probe_;      // R − {Ci} ∪ {Cj} ∪ gains
  std::vector<ChunkRef> fit_;     // F_i
  std::vector<bool> pair_failed_;
  std::vector<ChunkRef> gain_;
  std::vector<ChunkRef> best_gain_;
};

}  // namespace

std::vector<std::vector<ChunkRef>> find_reconstruction_sets(
    const StripeLayout& layout, NodeId stf,
    const std::vector<NodeId>& healthy_sources, const ec::ErasureCode& code,
    const ReconSetOptions& options, ReconSetStats* stats) {
  return find_reconstruction_sets_for(layout.chunks_on(stf), layout,
                                      healthy_sources, code, options, stats);
}

std::vector<std::vector<ChunkRef>> find_reconstruction_sets_for(
    std::vector<ChunkRef> all_chunks, const StripeLayout& layout,
    const std::vector<NodeId>& healthy_sources, const ec::ErasureCode& code,
    const ReconSetOptions& options, ReconSetStats* stats) {
  FASTPR_CHECK_MSG(static_cast<int>(healthy_sources.size()) >=
                       code.repair_fetch_count(0),
                   "need at least k' healthy source nodes");

  MatchContext ctx(layout, healthy_sources, code, options.max_set_size,
                   stats, options.topology, &options.deprioritized);
  for (ChunkRef c : all_chunks) {
    FASTPR_CHECK_MSG(!ctx.is_source(layout.node_of(c)),
                     "node " << layout.node_of(c)
                             << " is listed as a helper source but holds "
                                "chunk ("
                             << c.stripe << "," << c.index
                             << ") under repair");
  }
  SetFinder finder(ctx, options.optimize, stats);

  std::vector<std::vector<ChunkRef>> sets;

  // §IV-D mitigation: operate on chunk groups independently.
  const int group_size = options.chunk_group_size > 0
                             ? options.chunk_group_size
                             : static_cast<int>(all_chunks.size());
  for (size_t start = 0; start < all_chunks.size();
       start += static_cast<size_t>(group_size)) {
    const size_t end =
        std::min(all_chunks.size(), start + static_cast<size_t>(group_size));
    std::vector<ChunkRef> group(all_chunks.begin() + static_cast<ptrdiff_t>(start),
                                all_chunks.begin() + static_cast<ptrdiff_t>(end));
    while (!group.empty()) {
      sets.push_back(finder.find_one_set(group));
    }
  }
  return sets;
}

bool is_valid_reconstruction_set(const StripeLayout& layout, NodeId stf,
                                 const std::vector<NodeId>& healthy,
                                 const ec::ErasureCode& code,
                                 const std::vector<ChunkRef>& set) {
  FASTPR_CHECK(std::find(healthy.begin(), healthy.end(), stf) ==
               healthy.end());
  MatchContext ctx(layout, healthy, code, 0, nullptr);
  IncrementalMatcher matcher = ctx.make_matcher();
  for (ChunkRef c : set) {
    if (!ctx.try_match(matcher, c)) return false;
  }
  return true;
}

}  // namespace fastpr::core
