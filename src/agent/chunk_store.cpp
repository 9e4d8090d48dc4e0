#include "agent/chunk_store.h"

#include <cstring>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/crc32c.h"

namespace fastpr::agent {

ChunkStore::ChunkStore(const Options& options, const ChunkOracle* oracle)
    : oracle_(oracle),
      disk_(std::make_unique<TokenBucket>(options.disk_bytes_per_sec)) {}

void ChunkStore::write(cluster::ChunkRef chunk, std::vector<uint8_t> data) {
  FASTPR_TRACE_SPAN("store.write", "store");
  charge_io(static_cast<int64_t>(data.size()));
  write_unthrottled(chunk, std::move(data));
}

bool ChunkStore::read_slice(cluster::ChunkRef chunk, uint64_t offset,
                            std::span<uint8_t> out) const {
  {
    MutexLock lock(mutex_);
    if (read_errors_.count(chunk) != 0) return false;
    const auto it = chunks_.find(chunk);
    if (it != chunks_.end()) {
      const std::vector<uint8_t>& data = it->second;
      if (offset > data.size() || out.size() > data.size() - offset) {
        return false;
      }
      if (!out.empty()) {
        std::memcpy(out.data(), data.data() + offset, out.size());
      }
      return true;
    }
  }
  // Synthesized content.
  return oracle_ != nullptr && oracle_->read_slice(chunk, offset, out);
}

std::optional<uint64_t> ChunkStore::chunk_size(cluster::ChunkRef chunk) const {
  {
    MutexLock lock(mutex_);
    if (read_errors_.count(chunk) != 0) return std::nullopt;
    const auto it = chunks_.find(chunk);
    if (it != chunks_.end()) return it->second.size();
  }
  if (oracle_ != nullptr && oracle_->read_slice(chunk, 0, {})) {
    return oracle_->chunk_bytes();
  }
  return std::nullopt;
}

std::optional<std::vector<uint8_t>> ChunkStore::read_unthrottled(
    cluster::ChunkRef chunk) const {
  const auto size = chunk_size(chunk);
  if (!size.has_value()) return std::nullopt;
  std::vector<uint8_t> data(*size);
  if (!read_slice(chunk, 0, data)) return std::nullopt;
  return data;
}

std::optional<std::vector<uint8_t>> ChunkStore::read(
    cluster::ChunkRef chunk) const {
  FASTPR_TRACE_SPAN("store.read", "store");
  auto data = read_unthrottled(chunk);
  if (data.has_value()) {
    charge_io(static_cast<int64_t>(data->size()));
  }
  return data;
}

void ChunkStore::write_unthrottled(cluster::ChunkRef chunk,
                                   std::vector<uint8_t> data) {
  const uint32_t checksum = crc32c(data);
  MutexLock lock(mutex_);
  checksums_[chunk] = checksum;
  chunks_[chunk] = std::move(data);
}

void ChunkStore::charge_io(int64_t bytes) const {
  // The span exposes disk pacing: its duration is the time this packet
  // spent waiting on the token bucket.
  FASTPR_TRACE_SPAN("store.charge_io", "store", bytes, "bytes");
  disk_->acquire(bytes);
  static telemetry::Counter& io_bytes =
      telemetry::MetricsRegistry::global().counter("store.io_bytes");
  io_bytes.add(bytes);
}

bool ChunkStore::has_materialized(cluster::ChunkRef chunk) const {
  MutexLock lock(mutex_);
  return chunks_.count(chunk) != 0;
}

void ChunkStore::erase(cluster::ChunkRef chunk) {
  MutexLock lock(mutex_);
  chunks_.erase(chunk);
  checksums_.erase(chunk);
}

void ChunkStore::inject_read_error(cluster::ChunkRef chunk) {
  MutexLock lock(mutex_);
  read_errors_.insert(chunk);
}

void ChunkStore::clear_read_errors() {
  MutexLock lock(mutex_);
  read_errors_.clear();
}

void ChunkStore::corrupt(cluster::ChunkRef chunk, size_t byte_index) {
  MutexLock lock(mutex_);
  const auto it = chunks_.find(chunk);
  FASTPR_CHECK_MSG(it != chunks_.end(),
                   "can only corrupt a materialized chunk");
  FASTPR_CHECK(byte_index < it->second.size());
  it->second[byte_index] ^= 0x01;
}

std::vector<cluster::ChunkRef> ChunkStore::scrub() const {
  std::vector<cluster::ChunkRef> damaged;
  MutexLock lock(mutex_);
  for (const auto& [ref, data] : chunks_) {
    const auto it = checksums_.find(ref);
    if (it == checksums_.end() || crc32c(data) != it->second) {
      damaged.push_back(ref);
    }
  }
  return damaged;
}

size_t ChunkStore::materialized_count() const {
  MutexLock lock(mutex_);
  return chunks_.size();
}

}  // namespace fastpr::agent
