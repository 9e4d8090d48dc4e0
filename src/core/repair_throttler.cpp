#include "core/repair_throttler.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace fastpr::core {

namespace {

ThrottlerOptions normalized(ThrottlerOptions o) {
  FASTPR_CHECK(o.total_bytes_per_sec > 0);
  o.initial_fraction = std::clamp(o.initial_fraction, 0.0, 1.0);
  return o;
}

}  // namespace

RepairThrottler::RepairThrottler(const ThrottlerOptions& options)
    : options_(normalized(options)),
      budget_(std::clamp(options_.initial_fraction *
                             options_.total_bytes_per_sec,
                         floor_rate(), options_.total_bytes_per_sec)) {}

void RepairThrottler::reset(int64_t now_us, double total_repair_bytes) {
  MutexLock lock(mutex_);
  bytes_remaining_ = std::max(0.0, total_repair_bytes);
  budget_ = std::clamp(
      options_.initial_fraction * options_.total_bytes_per_sec,
      floor_rate(), options_.total_bytes_per_sec);
  panic_ = false;
  // next_seq_ deliberately NOT reset: grants stay globally monotonic so
  // an agent can never apply a stale lease from an earlier run.
  for (auto& [node, state] : agents_) {
    state = AgentState{};
    state.last_report_us = now_us;
  }
}

void RepairThrottler::add_agent(cluster::NodeId node) {
  MutexLock lock(mutex_);
  agents_.emplace(node, AgentState{});
}

void RepairThrottler::report_pressure(cluster::NodeId node, uint64_t seq,
                                      double p99_seconds,
                                      double fg_bytes_per_sec,
                                      int64_t now_us) {
  MutexLock lock(mutex_);
  const auto it = agents_.find(node);
  if (it == agents_.end()) return;  // unknown sender: ignore
  AgentState& state = it->second;
  (void)seq;  // any reply renews the lease; seq is diagnostic only here
  state.last_report_us = std::max(state.last_report_us, now_us);
  state.p99_seconds = p99_seconds;
  state.fg_bytes_per_sec = std::max(0.0, fg_bytes_per_sec);
  state.live = true;
  state.reported = true;
}

void RepairThrottler::on_progress(double bytes_done) {
  MutexLock lock(mutex_);
  bytes_remaining_ = std::max(0.0, bytes_remaining_ - bytes_done);
}

void RepairThrottler::set_remaining(double bytes) {
  MutexLock lock(mutex_);
  bytes_remaining_ = std::max(0.0, bytes);
}

void RepairThrottler::set_deadline(int64_t deadline_us) {
  MutexLock lock(mutex_);
  deadline_us_ = deadline_us;
}

void RepairThrottler::evaluate_panic_locked(int64_t now_us) {
  if (panic_ || deadline_us_ == 0 || bytes_remaining_ <= 0) return;
  // Finish-time estimate at the current pace cap. A budget at (or
  // below) the floor with a near deadline is exactly the paper's
  // motivating scenario: politeness would lose the race to the failure.
  const double finish_seconds = bytes_remaining_ / budget_;
  const int64_t finish_us =
      now_us + static_cast<int64_t>(finish_seconds * 1e6);
  if (finish_us <= deadline_us_) return;
  panic_ = true;
  budget_ = options_.total_bytes_per_sec;
  LOG_WARN("repair throttler PANIC: estimated finish in "
           << finish_seconds << "s misses the STF deadline by "
           << static_cast<double>(finish_us - deadline_us_) / 1e6
           << "s; deliberately breaching the foreground SLO and pinning "
              "repair at "
           << budget_ << " B/s");
}

std::vector<LeaseGrant> RepairThrottler::tick(int64_t now_us) {
  MutexLock lock(mutex_);

  // 1. Expire silent leases: their share returns to the pool below
  //    (expired agents drop out of the weight normalization).
  for (auto& [node, state] : agents_) {
    if (state.live && now_us - state.last_report_us > kLeaseTtlUs) {
      state.live = false;
      ++leases_expired_;
      LOG_WARN("repair lease for agent " << node
                                         << " expired un-renewed; share "
                                            "returns to the pool");
    }
  }

  // 2. AIMD against the SLO, driven by the worst fresh p99 any live
  //    agent reported since the previous tick. No fresh report → hold.
  if (!panic_ && options_.adaptive && options_.slo_p99_seconds > 0) {
    double worst_p99 = 0;
    bool fresh = false;
    for (auto& [node, state] : agents_) {
      if (!state.live || !state.reported) continue;
      fresh = true;
      worst_p99 = std::max(worst_p99, state.p99_seconds);
    }
    if (fresh) {
      if (worst_p99 > options_.slo_p99_seconds) {
        ++slo_breaches_;
        budget_ = std::max(floor_rate(), budget_ * kDecreaseFactor);
      } else {
        budget_ = std::min(
            options_.total_bytes_per_sec,
            budget_ + options_.total_bytes_per_sec * kIncreaseShare);
      }
    }
  }
  for (auto& [node, state] : agents_) state.reported = false;

  // 3. Panic predicate (sticky; pins budget_ at the ceiling).
  evaluate_panic_locked(now_us);

  // 4. Re-lease: live agents split the budget weighted by foreground
  //    headroom — an agent whose foreground throughput runs hotter than
  //    the live average gets a proportionally smaller repair share.
  //    Expired agents still receive a minimal re-admission lease (their
  //    first pressure report revives them) but do not dilute the pool.
  std::vector<LeaseGrant> grants;
  if (agents_.empty()) return grants;
  int live_count = 0;
  double total_fg = 0;
  for (const auto& [node, state] : agents_) {
    if (!state.live) continue;
    ++live_count;
    total_fg += state.fg_bytes_per_sec;
  }
  const double mean_fg = live_count > 0 ? total_fg / live_count : 0;
  double weight_sum = 0;
  std::map<cluster::NodeId, double> weights;
  for (const auto& [node, state] : agents_) {
    if (!state.live) continue;
    // 1.0 at the mean load, → 0.5 at 2x the mean, → 2.0 when idle
    // while others are loaded. In panic mode pressure is ignored:
    // every live agent gets an equal slice of the full ceiling.
    const double relative =
        mean_fg > 0 ? state.fg_bytes_per_sec / mean_fg : 1.0;
    const double w = panic_ ? 1.0 : 2.0 / (1.0 + relative);
    weights[node] = w;
    weight_sum += w;
  }
  const double readmit_rate =
      std::max(1.0, floor_rate() / static_cast<double>(agents_.size()));
  for (auto& [node, state] : agents_) {
    LeaseGrant grant;
    grant.agent = node;
    grant.seq = ++next_seq_;
    grant.ttl_us = kLeaseTtlUs;
    if (state.live && weight_sum > 0) {
      grant.bytes_per_sec = budget_ * weights[node] / weight_sum;
    } else {
      grant.bytes_per_sec = readmit_rate;
    }
    state.last_seq_granted = grant.seq;
    ++leases_granted_;
    grants.push_back(grant);
  }
  return grants;
}

bool RepairThrottler::panic() const {
  MutexLock lock(mutex_);
  return panic_;
}

double RepairThrottler::budget_bytes_per_sec() const {
  MutexLock lock(mutex_);
  return budget_;
}

ThrottlerStats RepairThrottler::stats() const {
  MutexLock lock(mutex_);
  ThrottlerStats s;
  s.panic = panic_;
  s.leases_granted = leases_granted_;
  s.leases_expired = leases_expired_;
  s.slo_breaches = slo_breaches_;
  s.budget_bytes_per_sec = budget_;
  return s;
}

}  // namespace fastpr::core
