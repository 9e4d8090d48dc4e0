#include "agent/repair_budget.h"

#include "util/check.h"

namespace fastpr::agent {

namespace {

/// Bucket burst. Small relative to repair packets so re-leases take
/// effect within a packet or two.
constexpr int64_t kBurstBytes = 256 * kKiB;

/// Rate after a lease expires un-renewed (and before the first grant
/// arrives). Small: this is the partitioned-agent trickle, not a
/// working share.
constexpr double kFloorBytesPerSec = 64 * kKiB;

}  // namespace

RepairBudget::RepairBudget() : bucket_(kFloorBytesPerSec, kBurstBytes) {}

bool RepairBudget::apply_grant(uint64_t seq, double bytes_per_sec,
                               int64_t ttl_us, int64_t now_us) {
  {
    MutexLock lock(mutex_);
    if (released_) return false;            // tearing down
    if (seq <= applied_seq_) return false;  // stale or duplicate grant
    applied_seq_ = seq;
    lease_expires_us_ = now_us + ttl_us;
    ++leases_applied_;
  }
  // Rate change outside the bookkeeping lock (set_rate blocks on the
  // bucket's own mutex and wakes waiters). A racing newer grant just
  // wins the last set_rate — rates converge at the next tick anyway.
  bucket_.set_rate(std::max(bytes_per_sec, kFloorBytesPerSec));
  return true;
}

bool RepairBudget::expire_if_stale(int64_t now_us) {
  {
    MutexLock lock(mutex_);
    if (released_) return false;
    if (lease_expires_us_ == 0 || now_us < lease_expires_us_) return false;
    lease_expires_us_ = 0;  // expire once; next grant re-arms
    ++expirations_;
  }
  bucket_.set_rate(kFloorBytesPerSec);
  return true;
}

void RepairBudget::release() {
  {
    MutexLock lock(mutex_);
    released_ = true;
  }
  bucket_.set_rate(0);
}

void RepairBudget::acquire(int64_t bytes, int64_t now_us) {
  expire_if_stale(now_us);
  bucket_.acquire(bytes);
}

uint64_t RepairBudget::applied_seq() const {
  MutexLock lock(mutex_);
  return applied_seq_;
}

int64_t RepairBudget::leases_applied() const {
  MutexLock lock(mutex_);
  return leases_applied_;
}

int64_t RepairBudget::expirations() const {
  MutexLock lock(mutex_);
  return expirations_;
}

}  // namespace fastpr::agent
