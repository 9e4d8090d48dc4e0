#include "core/scheduler.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace fastpr::core {

RepairStrategy resolve_strategy(StrategyChoice choice,
                                const CostModel& model, int cr) {
  switch (choice) {
    case StrategyChoice::kFanIn: return RepairStrategy::kFanIn;
    case StrategyChoice::kChain: return RepairStrategy::kChain;
    case StrategyChoice::kAuto:
      return model.choose_strategy(
          static_cast<double>(std::max(1, cr)));
  }
  return RepairStrategy::kFanIn;
}

std::vector<ScheduledRound> schedule_repair(
    std::vector<std::vector<cluster::ChunkRef>> recon_sets,
    const CostModel& model, const SchedulerOptions& options,
    const std::function<int(cluster::ChunkRef)>& member_of) {
  // Each chunk's member disk is resolved once; `migrate` marks the
  // chunks the current round takes.
  struct Pending {
    cluster::ChunkRef chunk;
    int member;
    bool migrate;
  };
  const int members = model.params().batch;
  std::vector<std::vector<Pending>> sets;
  sets.reserve(recon_sets.size());
  for (const auto& set : recon_sets) {
    FASTPR_CHECK(!set.empty());
    auto& pending = sets.emplace_back();
    pending.reserve(set.size());
    for (cluster::ChunkRef chunk : set) {
      const int member = member_of ? member_of(chunk) : 0;
      FASTPR_CHECK_MSG(member >= 0 && member < members,
                       "chunk owner is not in the STF batch");
      pending.push_back(Pending{chunk, member, false});
    }
  }

  const auto larger = [](const auto& a, const auto& b) {
    return a.size() > b.size();
  };
  std::vector<ScheduledRound> rounds;
  std::vector<int> budget(static_cast<size_t>(members));
  std::vector<size_t> marked;
  while (!sets.empty()) {
    // Line 1: sort by size, descending (stable for determinism). The
    // sets only shrink, so after the first round they are usually still
    // sorted.
    if (!std::is_sorted(sets.begin(), sets.end(), larger)) {
      std::stable_sort(sets.begin(), sets.end(), larger);
    }

    // Line 2 onward: reconstruct the largest set R_l.
    ScheduledRound round;
    round.reconstruct.reserve(sets[0].size());
    for (const auto& p : sets[0]) round.reconstruct.push_back(p.chunk);
    const int cr = static_cast<int>(round.reconstruct.size());
    round.strategy = resolve_strategy(options.strategy, model, cr);

    // Per-disk migration quota plus the shared destination-capacity cap
    // on the whole round.
    const int quota = options.fixed_migration_quota >= 0
                          ? options.fixed_migration_quota
                          : model.migration_quota(cr, round.strategy);
    std::fill(budget.begin(), budget.end(), quota);
    int open_disks = quota > 0 ? members : 0;
    int total_left = options.max_round_repairs > 0
                         ? std::max(0, options.max_round_repairs - cr)
                         : std::numeric_limits<int>::max();

    // Lines 9–12: migrate from the smallest sets up, back to front —
    // the suffix of the sorted sets — skipping chunks whose disk has
    // spent its quota.
    marked.assign(sets.size(), 0);
    for (size_t i = sets.size(); i-- > 1 && total_left > 0 && open_disks > 0;) {
      for (size_t p = sets[i].size();
           p-- > 0 && total_left > 0 && open_disks > 0;) {
        auto& pending = sets[i][p];
        int& left = budget[static_cast<size_t>(pending.member)];
        if (left <= 0) continue;
        if (--left == 0) --open_disks;
        --total_left;
        pending.migrate = true;
        ++marked[i];
      }
    }

    // Emit fully migrated sets ascending, forward; then partially
    // migrated sets ascending, back to front.
    for (size_t i = 1; i < sets.size(); ++i) {
      if (marked[i] != sets[i].size()) continue;
      for (const auto& p : sets[i]) round.migrate.push_back(p.chunk);
    }
    for (size_t i = 1; i < sets.size(); ++i) {
      if (marked[i] == 0 || marked[i] == sets[i].size()) continue;
      for (size_t p = sets[i].size(); p-- > 0;) {
        if (sets[i][p].migrate) round.migrate.push_back(sets[i][p].chunk);
      }
    }
    rounds.push_back(std::move(round));

    // Lines 13–14: drop the reconstructed set and every migrated chunk.
    size_t kept = 0;
    for (size_t i = 1; i < sets.size(); ++i) {
      if (marked[i] == sets[i].size()) continue;
      if (marked[i] > 0) {
        sets[i].erase(std::remove_if(sets[i].begin(), sets[i].end(),
                                     [](const Pending& p) {
                                       return p.migrate;
                                     }),
                      sets[i].end());
      }
      sets[kept++] = std::move(sets[i]);
    }
    sets.resize(kept);
  }
  return rounds;
}

}  // namespace fastpr::core
