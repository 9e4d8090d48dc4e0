#include "util/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "telemetry/metrics.h"
#include "util/check.h"

namespace fastpr {

namespace {

// Mirror of BufferPool::Stats in the process-wide metrics registry, so
// --metrics-out / bench sidecars report pool behaviour without a
// BufferPool handle. Counting stays inside the pool's existing critical
// section: the adds are relaxed atomics, negligible next to the lock.
struct PoolCounters {
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& recycled;
  telemetry::Counter& dropped;

  static PoolCounters& get() {
    static PoolCounters counters{
        telemetry::MetricsRegistry::global().counter("buffer_pool.hits"),
        telemetry::MetricsRegistry::global().counter("buffer_pool.misses"),
        telemetry::MetricsRegistry::global().counter("buffer_pool.recycled"),
        telemetry::MetricsRegistry::global().counter("buffer_pool.dropped")};
    return counters;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// PooledBuffer

PooledBuffer::PooledBuffer(PooledBuffer&& other) noexcept
    : storage_(std::move(other.storage_)),
      capacity_(std::exchange(other.capacity_, 0)),
      size_(std::exchange(other.size_, 0)),
      home_(std::move(other.home_)) {}

PooledBuffer& PooledBuffer::operator=(PooledBuffer&& other) noexcept {
  if (this != &other) {
    release();
    storage_ = std::move(other.storage_);
    capacity_ = std::exchange(other.capacity_, 0);
    size_ = std::exchange(other.size_, 0);
    home_ = std::move(other.home_);
  }
  return *this;
}

PooledBuffer::~PooledBuffer() { release(); }

void PooledBuffer::release() {
  if (home_ && storage_) {
    home_->put_back(std::move(storage_), capacity_);
  }
  storage_.reset();
  capacity_ = 0;
  size_ = 0;
  home_.reset();
}

void PooledBuffer::assign(const uint8_t* src, size_t len) {
  if (len == 0) {  // control messages: no payload, no pool traffic
    size_ = 0;
    return;
  }
  if (capacity_ < len) {
    *this = BufferPool::global()->acquire(len);
  } else {
    size_ = len;
  }
  std::memcpy(data(), src, len);
}

void PooledBuffer::assign(size_t count, uint8_t value) {
  if (count == 0) {
    size_ = 0;
    return;
  }
  if (capacity_ < count) {
    *this = BufferPool::global()->acquire(count);
  } else {
    size_ = count;
  }
  std::memset(data(), value, count);
}

void PooledBuffer::resize_uninitialized(size_t len) {
  if (len == 0) {
    size_ = 0;
    return;
  }
  if (capacity_ < len) {
    *this = BufferPool::global()->acquire(len);
  } else {
    size_ = len;
  }
}

PooledBuffer& PooledBuffer::operator=(std::initializer_list<uint8_t> bytes) {
  *this = BufferPool::global()->acquire(bytes.size());
  std::copy(bytes.begin(), bytes.end(), data());
  return *this;
}

PooledBuffer PooledBuffer::clone() const {
  if (size_ == 0) return {};
  const auto& pool = home_ ? home_ : BufferPool::global();
  PooledBuffer copy = pool->acquire(size_);
  std::memcpy(copy.data(), data(), size_);
  return copy;
}

bool operator==(const PooledBuffer& a, const PooledBuffer& b) {
  return a.size_ == b.size_ &&
         (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
}

bool operator==(const PooledBuffer& a, const std::vector<uint8_t>& b) {
  return a.size() == b.size() &&
         (b.empty() || std::memcmp(a.data(), b.data(), b.size()) == 0);
}

// ---------------------------------------------------------------------------
// BufferPool

BufferPool::BufferPool(size_t max_shelf_buffers)
    : max_shelf_buffers_(max_shelf_buffers) {}

std::shared_ptr<BufferPool> BufferPool::create(size_t max_shelf_buffers) {
  // Private constructor: go through a make_shared-compatible shim.
  struct Shim : BufferPool {
    explicit Shim(size_t cap) : BufferPool(cap) {}
  };
  return std::make_shared<Shim>(max_shelf_buffers);
}

const std::shared_ptr<BufferPool>& BufferPool::global() {
  static const std::shared_ptr<BufferPool> pool = create();
  return pool;
}

const std::shared_ptr<BufferPool>& BufferPool::chunks() {
  static const std::shared_ptr<BufferPool> pool = create(kKeepAll);
  return pool;
}

int BufferPool::shelf_for(size_t len) {
  const size_t clamped = std::max<size_t>(len, size_t{1} << kMinShelf);
  const int shelf = std::bit_width(clamped - 1);  // ceil(log2(clamped))
  FASTPR_CHECK_MSG(shelf <= kMaxShelf,
                   "buffer of " << len << " bytes exceeds pool maximum");
  return shelf - kMinShelf;
}

PooledBuffer BufferPool::acquire(size_t len) {
  const int shelf = shelf_for(len);
  PooledBuffer out;
  {
    MutexLock lock(mutex_);
    auto& cached = shelves_[shelf];
    if (!cached.empty()) {
      out.storage_ = std::move(cached.back());
      cached.pop_back();
      ++stats_.hits;
      PoolCounters::get().hits.add();
    } else {
      ++stats_.misses;
      PoolCounters::get().misses.add();
    }
  }
  out.capacity_ = size_t{1} << (shelf + kMinShelf);
  if (!out.storage_) {
    // Default-initialized: a miss writes no byte, so a fresh chunk-sized
    // buffer costs its page faults where the producer first writes it,
    // not a memset here on top.
    out.storage_ = std::make_unique_for_overwrite<uint8_t[]>(out.capacity_);
  }
  out.size_ = len;
  out.home_ = shared_from_this();
  return out;
}

void BufferPool::put_back(std::unique_ptr<uint8_t[]> storage,
                          size_t capacity) {
  const int shelf = shelf_for(capacity);
  MutexLock lock(mutex_);
  auto& cached = shelves_[shelf];
  if (cached.size() < max_shelf_buffers_) {
    cached.push_back(std::move(storage));
    ++stats_.recycled;
    PoolCounters::get().recycled.add();
  } else {
    ++stats_.dropped;
    PoolCounters::get().dropped.add();
  }
}

BufferPool::Stats BufferPool::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void BufferPool::trim() {
  MutexLock lock(mutex_);
  for (auto& shelf : shelves_) shelf.clear();
}

}  // namespace fastpr
