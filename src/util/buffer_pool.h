// Pooled buffer arenas for the repair data plane.
//
// Every data packet the testbed moves used to heap-allocate (and zero)
// a fresh payload vector; at 256 KiB per packet and thousands of
// packets per repair that allocation traffic dominates the data-plane
// CPU that is not GF arithmetic. BufferPool keeps freed buffers on
// power-of-two "shelves" and hands them back on the next acquire, so a
// steady-state transfer recycles a handful of buffers instead of
// touching the allocator per packet.
//
// Two process-wide pools share this class. global() carries packet
// payloads and caps each shelf at 64 buffers. chunks() carries whole
// repaired chunks (a destination's fold target, then the store's copy)
// and keeps every returned buffer: it allocates only when a class's
// shelf is empty, i.e. when every buffer it owns of that class is live,
// so it never owns more buffers of a class than were live at once, and
// a repeated repair folds into memory that is already faulted in.
//
// PooledBuffer is the RAII handle: move-only, returns its storage to
// the owning pool on destruction. The backing storage is always one
// capacity class long and a logical length is tracked separately, so
// acquire() never writes the bytes — not on a hit, and not on a miss,
// which allocates default-initialized storage. The producer overwrites
// the bytes it uses and consumers only see size() of them.
//
// The pool core is held by shared_ptr from both the pool object and
// every live handle, so buffers may safely outlive the pool (they then
// free instead of recycling). All operations are thread-safe; hit and
// miss counters let tests assert that a steady-state path allocates
// nothing per packet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace fastpr {

class BufferPool;

/// Move-only handle over pool-owned bytes. Default-constructed and
/// moved-from handles are empty (size() == 0, data() == nullptr).
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(PooledBuffer&& other) noexcept;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept;
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer();

  uint8_t* data() { return storage_.get(); }
  const uint8_t* data() const { return storage_.get(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  uint8_t& operator[](size_t i) { return storage_[i]; }
  const uint8_t& operator[](size_t i) const { return storage_[i]; }

  /// Pointer iterators so serialize()/std::equal-style code works.
  uint8_t* begin() { return data(); }
  uint8_t* end() { return data() + size_; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }

  std::span<uint8_t> span() { return {data(), size_}; }
  std::span<const uint8_t> span() const { return {data(), size_}; }

  /// Vector-style fills; acquire storage from the global pool when the
  /// handle has none (convenience for tests and message construction).
  void assign(const uint8_t* src, size_t len);
  void assign(size_t count, uint8_t value);
  PooledBuffer& operator=(std::initializer_list<uint8_t> bytes);

  /// Sets size() to len leaving the contents unspecified — the receive
  /// staging path, where the producer overwrites every byte. Reuses the
  /// current storage when it fits; otherwise re-acquires from the pool.
  void resize_uninitialized(size_t len);

  /// Deep copy (storage drawn from the same pool as the source, or the
  /// global pool for unpooled handles).
  PooledBuffer clone() const;

  /// Returns the storage to its pool and leaves the handle empty.
  void release();

  /// Byte-wise equality over the logical contents.
  friend bool operator==(const PooledBuffer& a, const PooledBuffer& b);

 private:
  friend class BufferPool;

  std::unique_ptr<uint8_t[]> storage_;  // capacity_ bytes
  size_t capacity_ = 0;                 // one capacity class, or 0
  size_t size_ = 0;                     // logical length <= capacity_
  std::shared_ptr<BufferPool> home_;    // null only while empty
};

bool operator==(const PooledBuffer& a, const PooledBuffer& b);
bool operator==(const PooledBuffer& a, const std::vector<uint8_t>& b);
inline bool operator==(const std::vector<uint8_t>& a, const PooledBuffer& b) {
  return b == a;
}

/// Thread-safe free-list arena. Construct directly for an isolated pool
/// (tests), or use BufferPool::global() — the process-wide arena the
/// data plane shares so a buffer acquired by a sending agent is
/// recycled after the receiving agent drops it — or
/// BufferPool::chunks() for whole chunks.
class BufferPool : public std::enable_shared_from_this<BufferPool> {
 public:
  /// Shelf cap of global(): a packet pool larger than this costs RSS
  /// without saving time (ROADMAP item 1).
  static constexpr size_t kPacketShelfBuffers = 64;
  /// Shelf cap of a pool that keeps every returned buffer.
  static constexpr size_t kKeepAll = SIZE_MAX;
  /// Largest buffer a pool serves (its top capacity class, 256 MiB).
  static constexpr size_t kMaxBytes = size_t{1} << 28;

  struct Stats {
    int64_t hits = 0;      // acquires served from a shelf
    int64_t misses = 0;    // acquires that had to allocate
    int64_t recycled = 0;  // buffers returned to a shelf
    int64_t dropped = 0;   // returns rejected by a full shelf (freed)
  };

  /// At most `max_shelf_buffers` cached buffers per capacity class;
  /// further returns free their storage instead of shelving it.
  static std::shared_ptr<BufferPool> create(
      size_t max_shelf_buffers = kPacketShelfBuffers);

  /// Process-wide pool used by Message payloads and the transports.
  static const std::shared_ptr<BufferPool>& global();

  /// Process-wide kKeepAll pool for whole chunks: the accumulator a
  /// destination folds a repaired chunk into, which ChunkStore keeps.
  static const std::shared_ptr<BufferPool>& chunks();

  /// A buffer with size() == len and unspecified contents.
  PooledBuffer acquire(size_t len);

  Stats stats() const FASTPR_EXCLUDES(mutex_);

  /// Frees every shelved buffer (cached memory, not live handles).
  void trim() FASTPR_EXCLUDES(mutex_);

 private:
  friend class PooledBuffer;

  explicit BufferPool(size_t max_shelf_buffers);

  /// Capacity classes are powers of two from 2^kMinShelf (512 B) to
  /// 2^kMaxShelf (kMaxBytes, one full testbed frame above any packet).
  static constexpr int kMinShelf = 9;
  static constexpr int kMaxShelf = 28;
  static_assert(kMaxBytes == size_t{1} << kMaxShelf);

  static int shelf_for(size_t len);

  void put_back(std::unique_ptr<uint8_t[]> storage, size_t capacity)
      FASTPR_EXCLUDES(mutex_);

  const size_t max_shelf_buffers_;
  mutable Mutex mutex_{lock_order::kUtilBufferPool};
  /// Shelf i holds storage of 2^(kMinShelf + i) bytes.
  std::vector<std::unique_ptr<uint8_t[]>> shelves_[kMaxShelf - kMinShelf + 1]
      FASTPR_GUARDED_BY(mutex_);
  Stats stats_ FASTPR_GUARDED_BY(mutex_);
};

}  // namespace fastpr
