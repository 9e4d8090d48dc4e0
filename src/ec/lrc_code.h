// Azure-style Locally Repairable Code LRC(k, l, g) over GF(2^8).
//
// Stripe layout (n = k + l + g chunks):
//   [0, k)            data chunks, split into l equal local groups
//   [k, k+l)          one local parity per group (XOR of its group)
//   [k+l, k+l+g)      global parities (Cauchy combinations of all data)
//
// Repairing a single data or local-parity chunk touches only its local
// group — k' = k/l helper chunks instead of k — which is exactly the
// property §III's "Extension for LRCs" plugs into the FastPR model
// (substitute k with k' and G with G' <= (M-1)/k').
#pragma once

#include <optional>
#include <utility>

#include "ec/erasure_code.h"
#include "ec/matrix.h"

namespace fastpr::ec {

class LrcCode final : public ErasureCode {
 public:
  /// k data chunks, l local groups (k % l == 0), g global parities.
  LrcCode(int k, int l, int g);

  int n() const override { return n_; }
  int k() const override { return k_; }
  std::string name() const override;

  int group_size() const { return k_ / l_; }

  /// Local group of a data or local-parity chunk; -1 for global parities.
  int group_of(int index) const;

  int repair_fetch_count(int lost_index) const override;
  std::vector<int> helper_candidates(int lost_index) const override;
  std::vector<int> repair_helpers(
      int lost_index, const std::vector<bool>& available) const override;

  void encode(const std::vector<ConstChunk>& data,
              const std::vector<MutChunk>& parity) const override;

  std::vector<uint8_t> parity_coefficients(int index) const override;

  std::vector<uint8_t> repair_coefficients(
      int lost_index,
      const std::vector<int>& helper_indices) const override;

  bool decode(const std::vector<int>& erased,
              const std::vector<MutChunk>& chunks) const override;

  const Matrix& generator() const { return generator_; }

 private:
  /// Expresses chunk `target` as a combination of a subset of
  /// `candidates`; returns (index, coefficient) pairs with nonzero
  /// coefficients, or nullopt if target is outside their row span.
  std::optional<std::vector<std::pair<int, uint8_t>>> solve_combination(
      int target, const std::vector<int>& candidates) const;

  int k_;
  int l_;
  int g_;
  int n_;
  Matrix generator_;  // n×k over the data chunks
};

}  // namespace fastpr::ec
