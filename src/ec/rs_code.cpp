#include "ec/rs_code.h"

#include <sstream>

#include "gf/gf256.h"
#include "util/check.h"

namespace fastpr::ec {

namespace {

Matrix build_cauchy_generator(int n, int k) {
  Matrix g(n, k);
  for (int r = 0; r < k; ++r) g.at(r, r) = 1;
  // Parity rows: Cauchy with x_r = r (parity row ids) and y_c = (n-k)+c.
  const Matrix c = Matrix::cauchy(n - k, k);
  for (int r = 0; r < n - k; ++r) {
    for (int col = 0; col < k; ++col) g.at(k + r, col) = c.at(r, col);
  }
  return g;
}

Matrix build_vandermonde_generator(int n, int k) {
  // Start from an n×k Vandermonde matrix (any k rows independent), then
  // reduce the top k×k block to identity with elementary column
  // operations; column ops preserve the any-k-rows-invertible property.
  Matrix g = Matrix::vandermonde(n, k);
  for (int col = 0; col < k; ++col) {
    // Ensure g(col, col) != 0 by swapping in a later column if needed.
    if (g.at(col, col) == 0) {
      int swap_with = -1;
      for (int c2 = col + 1; c2 < k; ++c2) {
        if (g.at(col, c2) != 0) {
          swap_with = c2;
          break;
        }
      }
      FASTPR_CHECK_MSG(swap_with >= 0, "Vandermonde row unexpectedly zero");
      g.swap_cols(col, swap_with);
    }
    g.scale_col(col, gf::inv(g.at(col, col)));
    for (int c2 = 0; c2 < k; ++c2) {
      if (c2 == col) continue;
      const uint8_t factor = g.at(col, c2);
      if (factor != 0) g.add_scaled_col(c2, col, factor);
    }
  }
  return g;
}

}  // namespace

RsCode::RsCode(int n, int k, Construction construction)
    : n_(n), k_(k), construction_(construction) {
  FASTPR_CHECK_MSG(k >= 1 && n > k, "RS requires 1 <= k < n");
  FASTPR_CHECK_MSG(n <= gf::kFieldSize, "RS over GF(256) requires n <= 256");
  generator_ = construction == Construction::kCauchy
                   ? build_cauchy_generator(n, k)
                   : build_vandermonde_generator(n, k);
}

std::string RsCode::name() const {
  std::ostringstream os;
  os << "RS(" << n_ << "," << k_ << ")";
  if (construction_ == Construction::kVandermonde) os << "[vand]";
  return os.str();
}

int RsCode::repair_fetch_count(int /*lost_index*/) const { return k_; }

std::vector<int> RsCode::helper_candidates(int lost_index) const {
  FASTPR_CHECK(lost_index >= 0 && lost_index < n_);
  std::vector<int> candidates;
  candidates.reserve(static_cast<size_t>(n_ - 1));
  for (int i = 0; i < n_; ++i) {
    if (i != lost_index) candidates.push_back(i);
  }
  return candidates;
}

std::vector<int> RsCode::repair_helpers(
    int lost_index, const std::vector<bool>& available) const {
  FASTPR_CHECK(static_cast<int>(available.size()) == n_);
  FASTPR_CHECK(lost_index >= 0 && lost_index < n_);
  std::vector<int> helpers;
  helpers.reserve(static_cast<size_t>(k_));
  for (int i = 0; i < n_ && static_cast<int>(helpers.size()) < k_; ++i) {
    if (i != lost_index && available[static_cast<size_t>(i)]) {
      helpers.push_back(i);
    }
  }
  FASTPR_CHECK_MSG(static_cast<int>(helpers.size()) == k_,
                   "fewer than k available chunks; unrepairable");
  return helpers;
}

void RsCode::encode(const std::vector<ConstChunk>& data,
                    const std::vector<MutChunk>& parity) const {
  FASTPR_CHECK(static_cast<int>(data.size()) == k_);
  FASTPR_CHECK(static_cast<int>(parity.size()) == n_ - k_);
  const size_t size = data.front().size();
  for (const auto& d : data) FASTPR_CHECK(d.size() == size);
  for (const auto& p : parity) FASTPR_CHECK(p.size() == size);

  for (int r = 0; r < n_ - k_; ++r) {
    MutChunk out = parity[static_cast<size_t>(r)];
    std::fill(out.begin(), out.end(), 0);
    // Fused dot: one pass over the parity chunk for all k sources.
    gf::dot_region_xor(out, std::span<const ConstChunk>(data),
                       parity_coefficients(k_ + r));
  }
}

std::vector<uint8_t> RsCode::combination_coeffs(
    int target, const std::vector<int>& helper_indices) const {
  FASTPR_CHECK(static_cast<int>(helper_indices.size()) == k_);
  const Matrix a = generator_.select_rows(helper_indices);
  const auto a_inv = a.inverted();
  FASTPR_CHECK_MSG(a_inv.has_value(),
                   "helper rows singular — not an MDS subset?");
  // Row vector: generator_row(target) × A^{-1}.
  std::vector<uint8_t> coeffs(static_cast<size_t>(k_), 0);
  for (int j = 0; j < k_; ++j) {
    uint8_t acc = 0;
    for (int t = 0; t < k_; ++t) {
      acc = static_cast<uint8_t>(
          acc ^ gf::mul(generator_.at(target, t), a_inv->at(t, j)));
    }
    coeffs[static_cast<size_t>(j)] = acc;
  }
  return coeffs;
}

std::vector<uint8_t> RsCode::parity_coefficients(int index) const {
  FASTPR_CHECK(index >= k_ && index < n_);
  std::vector<uint8_t> coeffs(static_cast<size_t>(k_));
  for (int c = 0; c < k_; ++c) {
    coeffs[static_cast<size_t>(c)] = generator_.at(index, c);
  }
  return coeffs;
}

std::vector<uint8_t> RsCode::repair_coefficients(
    int lost_index, const std::vector<int>& helper_indices) const {
  return combination_coeffs(lost_index, helper_indices);
}

bool RsCode::decode(const std::vector<int>& erased,
                    const std::vector<MutChunk>& chunks) const {
  FASTPR_CHECK(static_cast<int>(chunks.size()) == n_);
  std::vector<bool> is_erased(static_cast<size_t>(n_), false);
  for (int e : erased) {
    FASTPR_CHECK(e >= 0 && e < n_);
    is_erased[static_cast<size_t>(e)] = true;
  }
  std::vector<int> helpers;
  for (int i = 0; i < n_ && static_cast<int>(helpers.size()) < k_; ++i) {
    if (!is_erased[static_cast<size_t>(i)]) helpers.push_back(i);
  }
  if (static_cast<int>(helpers.size()) < k_) return false;

  std::vector<ConstChunk> helper_data;
  helper_data.reserve(helpers.size());
  for (int h : helpers) {
    helper_data.emplace_back(chunks[static_cast<size_t>(h)]);
  }
  for (int e : erased) {
    repair_chunk(e, helpers, helper_data, chunks[static_cast<size_t>(e)]);
  }
  return true;
}

}  // namespace fastpr::ec
