#include "matching/incremental_matching.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace fastpr::matching {

IncrementalMatcher::IncrementalMatcher(int left_count)
    : left_count_(left_count) {
  FASTPR_CHECK(left_count >= 0);
  match_l_.assign(static_cast<size_t>(left_count), -1);
  visit_stamp_.assign(static_cast<size_t>(left_count), 0);
}

void IncrementalMatcher::begin_visit() {
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: clear stale stamps once
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    epoch_ = 1;
  }
}

bool IncrementalMatcher::visit(int l) {
  unsigned& stamp = visit_stamp_[static_cast<size_t>(l)];
  if (stamp == epoch_) return false;
  stamp = epoch_;
  return true;
}

void IncrementalMatcher::check_adjacency(
    const std::vector<int>& adjacency) const {
  for (int l : adjacency) {
    FASTPR_CHECK_MSG(l >= 0 && l < left_count_,
                     "adjacency to nonexistent left vertex " << l);
  }
}

bool IncrementalMatcher::augment(int r) {
  for (int l : *right_adj_[static_cast<size_t>(r)]) {
    if (!visit(l)) continue;
    // A free left vertex takes r; a taken one must reroute its occupant
    // elsewhere. A successful recursive augment reseats the occupant
    // (writing its new left vertex itself), so l is simply handed to r.
    const int occupant = match_l_[static_cast<size_t>(l)];
    if (occupant == -1 || augment(occupant)) {
      match_l_[static_cast<size_t>(l)] = r;
      match_r_[static_cast<size_t>(r)] = l;
      return true;
    }
  }
  return false;
}

bool IncrementalMatcher::try_add_group(const std::vector<int>& adjacency,
                                       int copies) {
  FASTPR_CHECK(copies >= 1);
  check_adjacency(adjacency);
  masks_ = Masks::kStale;
  // A failed single augmentation leaves the matching untouched, so a
  // failure after t successes only needs the t successes undone — the
  // truncated match_r_ fully describes the matching, and match_l_ is
  // re-derived from it.
  const size_t saved_right = right_adj_.size();
  for (int copy = 0; copy < copies; ++copy) {
    right_adj_.push_back(&adjacency);
    match_r_.push_back(-1);
    begin_visit();
    if (!augment(right_count() - 1)) {
      right_adj_.resize(saved_right);
      match_r_.resize(saved_right);
      std::fill(match_l_.begin(), match_l_.end(), -1);
      for (size_t kept = 0; kept < saved_right; ++kept) {
        match_l_[static_cast<size_t>(match_r_[kept])] =
            static_cast<int>(kept);
      }
      return false;
    }
  }
  return true;
}

int IncrementalMatcher::reachable_free_slots(
    const std::vector<int>& adjacency, int limit) {
  FASTPR_CHECK(limit >= 1);
  check_adjacency(adjacency);
  if (masks_ == Masks::kStale) build_reach_masks();
  if (masks_ == Masks::kReady) {
    uint64_t reached = 0;
    for (int l : adjacency) reached |= reach_masks_[static_cast<size_t>(l)];
    return std::min(std::popcount(reached), limit);
  }
  // Too many free left vertices for the masks — a state far from
  // saturation, where most groups find `limit` of them within a few
  // steps. BFS over left vertices: from a reached, taken left vertex, an
  // alternating path continues through its occupant to that occupant's
  // other candidates.
  begin_visit();
  queue_.clear();
  for (int l : adjacency) {
    if (visit(l)) queue_.push_back(l);
  }
  int free_lefts = 0;
  for (size_t head = 0; head < queue_.size() && free_lefts < limit; ++head) {
    const int occupant = match_l_[static_cast<size_t>(queue_[head])];
    if (occupant == -1) {
      ++free_lefts;
      continue;
    }
    for (int next : *right_adj_[static_cast<size_t>(occupant)]) {
      if (visit(next)) queue_.push_back(next);
    }
  }
  return std::min(free_lefts, limit);
}

void IncrementalMatcher::build_reach_masks() {
  // A free left vertex reaches itself...
  const size_t lefts = static_cast<size_t>(left_count_);
  reach_masks_.assign(lefts, 0);
  int bit = 0;
  for (size_t l = 0; l < lefts; ++l) {
    if (match_l_[l] != -1) continue;
    if (bit == 64) {
      masks_ = Masks::kTooManyFree;
      return;
    }
    reach_masks_[l] = uint64_t{1} << bit++;
  }
  // ...and a taken one everything reachable from its occupant's
  // candidates. One alternating step runs l → x for each candidate x of
  // l's occupant; index those steps by x (counting sort).
  const auto for_each_step = [&](auto&& step) {
    for (size_t l = 0; l < lefts; ++l) {
      const int occupant = match_l_[l];
      if (occupant == -1) continue;
      for (int x : *right_adj_[static_cast<size_t>(occupant)]) {
        step(static_cast<int>(l), static_cast<size_t>(x));
      }
    }
  };
  pred_begin_.assign(lefts + 1, 0);
  for_each_step([&](int, size_t x) { ++pred_begin_[x + 1]; });
  for (size_t x = 0; x < lefts; ++x) pred_begin_[x + 1] += pred_begin_[x];
  pred_.resize(static_cast<size_t>(pred_begin_[lefts]));
  // Filling advances pred_begin_[x] to x's end, i.e. x+1's begin.
  for_each_step([&](int l, size_t x) {
    pred_[static_cast<size_t>(pred_begin_[x]++)] = l;
  });
  for (size_t x = lefts; x > 0; --x) pred_begin_[x] = pred_begin_[x - 1];
  pred_begin_[0] = 0;
  // Propagate backwards along the steps until no mask grows. Masks only
  // grow, so the worklist drains.
  queued_.assign(lefts, 0);
  queue_.clear();
  for (size_t l = 0; l < lefts; ++l) {
    if (reach_masks_[l] != 0) {
      queued_[l] = 1;
      queue_.push_back(static_cast<int>(l));
    }
  }
  for (size_t head = 0; head < queue_.size(); ++head) {
    const size_t x = static_cast<size_t>(queue_[head]);
    queued_[x] = 0;
    for (int p = pred_begin_[x]; p < pred_begin_[x + 1]; ++p) {
      const size_t l = static_cast<size_t>(pred_[static_cast<size_t>(p)]);
      const uint64_t grown = reach_masks_[l] | reach_masks_[x];
      if (grown == reach_masks_[l]) continue;
      reach_masks_[l] = grown;
      if (queued_[l] == 0) {
        queued_[l] = 1;
        queue_.push_back(static_cast<int>(l));
      }
    }
  }
  masks_ = Masks::kReady;
}

int IncrementalMatcher::matched_left(int r) const {
  FASTPR_CHECK(r >= 0 && r < right_count());
  return match_r_[static_cast<size_t>(r)];
}

void IncrementalMatcher::reset() {
  masks_ = Masks::kStale;
  right_adj_.clear();
  match_r_.clear();
  std::fill(match_l_.begin(), match_l_.end(), -1);
}

}  // namespace fastpr::matching
