#include "matching/incremental_matching.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace fastpr::matching {

IncrementalMatcher::IncrementalMatcher(int left_count)
    : IncrementalMatcher(left_count, 1) {}

IncrementalMatcher::IncrementalMatcher(int left_count, int capacity)
    : left_count_(left_count) {
  FASTPR_CHECK(left_count >= 0);
  FASTPR_CHECK(capacity >= 1);
  slot_offset_.resize(static_cast<size_t>(left_count) + 1);
  for (int l = 0; l <= left_count; ++l) {
    slot_offset_[static_cast<size_t>(l)] = l * capacity;
  }
  slots_.assign(static_cast<size_t>(left_count) * capacity, -1);
  visit_stamp_.assign(static_cast<size_t>(left_count), 0);
}

IncrementalMatcher::IncrementalMatcher(const std::vector<int>& capacities)
    : left_count_(static_cast<int>(capacities.size())) {
  slot_offset_.resize(capacities.size() + 1);
  slot_offset_[0] = 0;
  for (size_t l = 0; l < capacities.size(); ++l) {
    FASTPR_CHECK_MSG(capacities[l] >= 1, "left capacity must be >= 1");
    slot_offset_[l + 1] = slot_offset_[l] + capacities[l];
  }
  slots_.assign(static_cast<size_t>(slot_offset_.back()), -1);
  visit_stamp_.assign(capacities.size(), 0);
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

void IncrementalMatcher::place(int r, int l, int slot) {
  slots_[static_cast<size_t>(slot)] = r;
  match_r_[static_cast<size_t>(r)] = l;
}

bool IncrementalMatcher::augment(int r) {
  for (int l : *right_adj_[static_cast<size_t>(r)]) {
    if (!visit(l)) continue;
    const int begin = slot_offset_[static_cast<size_t>(l)];
    const int end = slot_offset_[static_cast<size_t>(l) + 1];
    // Free slot: take it.
    for (int s = begin; s < end; ++s) {
      if (slots_[static_cast<size_t>(s)] == -1) {
        place(r, l, s);
        return true;
      }
    }
    // All slots taken: try to reroute one occupant elsewhere. A
    // successful recursive augment reseats the occupant (writing its new
    // slot itself), so its old slot here is simply overwritten with r.
    for (int s = begin; s < end; ++s) {
      const int occupant = slots_[static_cast<size_t>(s)];
      if (augment(occupant)) {
        place(r, l, s);
        return true;
      }
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
  // truncated match_r_ fully describes the matching, and the slot
  // occupancy is re-derived from it.
  const size_t saved_right = right_adj_.size();
  for (int copy = 0; copy < copies; ++copy) {
    right_adj_.push_back(&adjacency);
    match_r_.push_back(-1);
    begin_visit();
    if (!augment(right_count() - 1)) {
      right_adj_.resize(saved_right);
      match_r_.resize(saved_right);
      refill_slots();
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
  // Too many free slots for the masks — a state far from saturation,
  // where most groups find `limit` slots within a few steps. BFS over
  // left vertices: from a reached left vertex, an alternating path
  // continues through each occupant of its slots to that occupant's
  // other candidates.
  begin_visit();
  queue_.clear();
  for (int l : adjacency) {
    if (visit(l)) queue_.push_back(l);
  }
  int free_slots = 0;
  for (size_t head = 0; head < queue_.size() && free_slots < limit; ++head) {
    const size_t l = static_cast<size_t>(queue_[head]);
    for (int s = slot_offset_[l]; s < slot_offset_[l + 1]; ++s) {
      const int occupant = slots_[static_cast<size_t>(s)];
      if (occupant == -1) {
        ++free_slots;
        continue;
      }
      for (int next : *right_adj_[static_cast<size_t>(occupant)]) {
        if (visit(next)) queue_.push_back(next);
      }
    }
  }
  return std::min(free_slots, limit);
}

void IncrementalMatcher::build_reach_masks() {
  // Each left vertex reaches its own free slots...
  const size_t lefts = static_cast<size_t>(left_count_);
  reach_masks_.assign(lefts, 0);
  int bit = 0;
  for (size_t l = 0; l < lefts; ++l) {
    for (int s = slot_offset_[l]; s < slot_offset_[l + 1]; ++s) {
      if (slots_[static_cast<size_t>(s)] != -1) continue;
      if (bit == 64) {
        masks_ = Masks::kTooManyFree;
        return;
      }
      reach_masks_[l] |= uint64_t{1} << bit++;
    }
  }
  // ...and everything reachable from the candidates of its occupants.
  // One alternating step runs l → x for each candidate x of an
  // occupant of l; index those steps by x (counting sort).
  const auto for_each_step = [&](auto&& step) {
    for (size_t l = 0; l < lefts; ++l) {
      for (int s = slot_offset_[l]; s < slot_offset_[l + 1]; ++s) {
        const int occupant = slots_[static_cast<size_t>(s)];
        if (occupant == -1) continue;
        for (int x : *right_adj_[static_cast<size_t>(occupant)]) {
          step(static_cast<int>(l), static_cast<size_t>(x));
        }
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

void IncrementalMatcher::refill_slots() {
  std::fill(slots_.begin(), slots_.end(), -1);
  for (size_t r = 0; r < match_r_.size(); ++r) {
    const int l = match_r_[r];
    if (l < 0) continue;
    const int begin = slot_offset_[static_cast<size_t>(l)];
    const int end = slot_offset_[static_cast<size_t>(l) + 1];
    for (int s = begin; s < end; ++s) {
      if (slots_[static_cast<size_t>(s)] == -1) {
        slots_[static_cast<size_t>(s)] = static_cast<int>(r);
        break;
      }
    }
  }
}

int IncrementalMatcher::matched_left(int r) const {
  FASTPR_CHECK(r >= 0 && r < right_count());
  return match_r_[static_cast<size_t>(r)];
}

int IncrementalMatcher::matched_count(int l) const {
  FASTPR_CHECK(l >= 0 && l < left_count_);
  int count = 0;
  const int begin = slot_offset_[static_cast<size_t>(l)];
  const int end = slot_offset_[static_cast<size_t>(l) + 1];
  for (int s = begin; s < end; ++s) {
    if (slots_[static_cast<size_t>(s)] != -1) ++count;
  }
  return count;
}

void IncrementalMatcher::reset() {
  masks_ = Masks::kStale;
  right_adj_.clear();
  match_r_.clear();
  std::fill(slots_.begin(), slots_.end(), -1);
}

}  // namespace fastpr::matching
