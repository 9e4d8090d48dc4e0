// Systematic Reed–Solomon codec RS(n, k) over GF(2^8).
//
// Two generator constructions are provided:
//  * kCauchy (default): generator [I_k ; C] with C an (n-k)×k Cauchy
//    matrix — MDS by the Cauchy submatrix property.
//  * kVandermonde: an n×k Vandermonde matrix column-reduced so its top
//    k×k block is the identity (the classic Jerasure construction).
// Both yield MDS systematic codes; the ablation bench compares them.
#pragma once

#include "ec/erasure_code.h"
#include "ec/matrix.h"

namespace fastpr::ec {

class RsCode final : public ErasureCode {
 public:
  enum class Construction { kCauchy, kVandermonde };

  RsCode(int n, int k, Construction construction = Construction::kCauchy);

  int n() const override { return n_; }
  int k() const override { return k_; }
  std::string name() const override;

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

  /// The n×k generator matrix (row i produces chunk i); exposed for tests
  /// that verify the MDS property by checking every k-row submatrix.
  const Matrix& generator() const { return generator_; }

 private:
  /// Coefficients expressing chunk `target` as a combination of the
  /// chunks at `helper_indices` (which must be k decodable indices).
  std::vector<uint8_t> combination_coeffs(
      int target, const std::vector<int>& helper_indices) const;

  int n_;
  int k_;
  Construction construction_;
  Matrix generator_;  // n×k, top k rows == identity
};

}  // namespace fastpr::ec
