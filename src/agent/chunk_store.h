// Per-node chunk storage with throttled I/O.
//
// A token bucket prices every read and write at the node's disk
// bandwidth bd — the testbed's stand-in for a real spindle. Contents
// come from two places:
//  * explicitly written chunks (repaired data), materialized in memory;
//  * an optional ChunkOracle that synthesizes unwritten chunks
//    deterministically (so a 100-node cluster of multi-GB "data" costs
//    no RAM — source reads regenerate content on the fly).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/types.h"
#include "util/mutex.h"
#include "util/token_bucket.h"

namespace fastpr::agent {

/// Deterministic content provider for chunks that were never written.
class ChunkOracle {
 public:
  virtual ~ChunkOracle() = default;
  /// Contents of `chunk`, or nullopt if the oracle does not know it.
  virtual std::optional<std::vector<uint8_t>> generate(
      cluster::ChunkRef chunk) const = 0;
};

class ChunkStore {
 public:
  struct Options {
    double disk_bytes_per_sec = 0;  // <=0: unthrottled
  };

  ChunkStore(const Options& options, const ChunkOracle* oracle = nullptr);

  /// Writes a whole chunk (throttled).
  void write(cluster::ChunkRef chunk, std::vector<uint8_t> data);

  /// Reads a whole chunk (throttled); nullopt if absent or an injected
  /// read error fires.
  std::optional<std::vector<uint8_t>> read(cluster::ChunkRef chunk) const;

  /// Charges the disk bucket without moving data. Pipelined transfers
  /// read a chunk once, then pace per-packet disk time through this.
  void charge_io(int64_t bytes) const;

  /// Content fetch with NO disk charge — callers that pipeline pace the
  /// disk themselves via charge_io (per packet).
  std::optional<std::vector<uint8_t>> read_unthrottled(
      cluster::ChunkRef chunk) const;

  /// Materialize with NO disk charge (the destination pipeline already
  /// charged each packet's write as it completed).
  void write_unthrottled(cluster::ChunkRef chunk, std::vector<uint8_t> data);

  /// True if read() would find content (oracle included), error injection
  /// aside.
  bool contains(cluster::ChunkRef chunk) const;

  /// True only if the chunk was explicitly written here (oracle content
  /// does not count) — how verification tells "repaired and stored" from
  /// "synthesizable".
  bool has_materialized(cluster::ChunkRef chunk) const;

  void erase(cluster::ChunkRef chunk);

  /// Failure injection: subsequent reads of `chunk` fail (an STF node
  /// dying mid-migration, a latent sector error on a helper).
  void inject_read_error(cluster::ChunkRef chunk);
  void clear_read_errors();

  /// Silent-corruption injection: flips one bit of a materialized
  /// chunk's stored bytes (a latent sector error the disk does NOT
  /// report). scrub() is how such damage is found.
  void corrupt(cluster::ChunkRef chunk, size_t byte_index);

  /// Verifies every materialized chunk against the CRC-32C recorded at
  /// write time; returns the chunks whose contents no longer match.
  /// This is the background scrubbing pass storage systems run to turn
  /// silent corruption into repairable (reactive) failures.
  std::vector<cluster::ChunkRef> scrub() const;

  /// Number of explicitly materialized (written) chunks.
  size_t materialized_count() const;

 private:
  const ChunkOracle* oracle_;
  mutable std::unique_ptr<TokenBucket> disk_;
  mutable Mutex mutex_{lock_order::kStoreChunks};
  std::unordered_map<cluster::ChunkRef, std::vector<uint8_t>,
                     cluster::ChunkRefHash>
      chunks_ FASTPR_GUARDED_BY(mutex_);
  std::unordered_map<cluster::ChunkRef, uint32_t, cluster::ChunkRefHash>
      checksums_ FASTPR_GUARDED_BY(mutex_);
  std::unordered_set<cluster::ChunkRef, cluster::ChunkRefHash> read_errors_
      FASTPR_GUARDED_BY(mutex_);
};

}  // namespace fastpr::agent
