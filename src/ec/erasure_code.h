// Abstract erasure-code interface.
//
// The FastPR planner only needs three facts about a code: n, k, and how
// many helper chunks a single-chunk repair fetches (k for RS, k/l within
// a local group for LRC — §III "Extension for LRCs"). The codecs
// additionally move real bytes for the testbed substrate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace fastpr::ec {

using ConstChunk = std::span<const uint8_t>;
using MutChunk = std::span<uint8_t>;

class ErasureCode {
 public:
  virtual ~ErasureCode() = default;

  /// Total chunks per stripe.
  virtual int n() const = 0;
  /// Chunks sufficient to reconstruct the stripe.
  virtual int k() const = 0;
  virtual std::string name() const = 0;

  /// Number of helper chunks fetched to repair the single chunk at
  /// `lost_index` (the paper's k'; §III).
  virtual int repair_fetch_count(int lost_index) const = 0;

  /// Stripe indices that may serve as helpers when repairing
  /// `lost_index` (the planner builds its matching adjacency from
  /// these). RS: every other index; LRC: the local group for data/local
  /// chunks, the data chunks for a global parity.
  virtual std::vector<int> helper_candidates(int lost_index) const = 0;

  /// Picks the helper chunk indices used to repair `lost_index`, given
  /// which stripe indices are currently available. Size equals
  /// repair_fetch_count(lost_index). Throws CheckFailure if the loss is
  /// unrepairable from the available set.
  virtual std::vector<int> repair_helpers(
      int lost_index, const std::vector<bool>& available) const = 0;

  /// Encodes k data chunks into n-k parity chunks. All chunks must have
  /// equal size; parity spans are written in full.
  virtual void encode(const std::vector<ConstChunk>& data,
                      const std::vector<MutChunk>& parity) const = 0;

  /// Coefficients of parity chunk `index` (k <= index < n) over the k
  /// data chunks: parity = sum_j coeff[j] * data_j. Lets callers
  /// materialize a single parity chunk without encoding the full stripe
  /// (the testbed's synthetic content oracle relies on this).
  virtual std::vector<uint8_t> parity_coefficients(int index) const = 0;

  /// GF(256) coefficients such that the lost chunk equals
  /// sum_i coeff[i] * helper_i. Aligned with `helper_indices`; entries
  /// may be zero (LRC solutions can ignore redundant helpers). The
  /// testbed destination agents decode by streaming mul-XOR with these.
  virtual std::vector<uint8_t> repair_coefficients(
      int lost_index, const std::vector<int>& helper_indices) const = 0;

  /// Repairs the single chunk `lost_index` from helper chunks previously
  /// chosen by repair_helpers (same order): one fused GF dot pass over
  /// `out` with the repair_coefficients.
  void repair_chunk(int lost_index, const std::vector<int>& helper_indices,
                    const std::vector<ConstChunk>& helper_data,
                    MutChunk out) const;

  /// General decode: reconstructs all chunks listed in `erased` from the
  /// available ones. `chunks[i]` holds chunk i's buffer; buffers of erased
  /// indices are outputs. Returns false if the pattern is undecodable.
  virtual bool decode(const std::vector<int>& erased,
                      const std::vector<MutChunk>& chunks) const = 0;

  /// True when the chunks at `erased` can all be rebuilt from the rest:
  /// runs decode on 1-byte scratch chunks, so the answer is exact for
  /// every code (LRC included, where some loss patterns within n - k do
  /// not decode).
  bool can_decode(const std::vector<int>& erased) const;
};

/// Convenience: stripes-in-memory encode used by tests and the workload
/// generator. data.size() == k buffers in, returns n buffers (data ++
/// parity) for a systematic code.
std::vector<std::vector<uint8_t>> encode_stripe(
    const ErasureCode& code, const std::vector<std::vector<uint8_t>>& data);

}  // namespace fastpr::ec
