#include "agent/chunk_store.h"

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

std::optional<std::vector<uint8_t>> ChunkStore::read_unthrottled(
    cluster::ChunkRef chunk) const {
  std::optional<std::vector<uint8_t>> materialized;
  {
    MutexLock lock(mutex_);
    if (read_errors_.count(chunk) != 0) return std::nullopt;
    const auto it = chunks_.find(chunk);
    if (it != chunks_.end()) materialized = it->second;
  }
  if (materialized.has_value()) return materialized;
  // Synthesized content.
  if (oracle_ != nullptr) return oracle_->generate(chunk);
  return std::nullopt;
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

bool ChunkStore::contains(cluster::ChunkRef chunk) const {
  {
    MutexLock lock(mutex_);
    if (chunks_.count(chunk) != 0) return true;
  }
  if (oracle_ != nullptr) {
    return oracle_->generate(chunk).has_value();
  }
  return false;
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
