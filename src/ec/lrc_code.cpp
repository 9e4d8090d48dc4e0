#include "ec/lrc_code.h"

#include <algorithm>
#include <sstream>

#include "gf/gf256.h"
#include "util/check.h"

namespace fastpr::ec {

LrcCode::LrcCode(int k, int l, int g)
    : k_(k), l_(l), g_(g), n_(k + l + g) {
  FASTPR_CHECK_MSG(k >= 1 && l >= 1 && g >= 0, "bad LRC parameters");
  FASTPR_CHECK_MSG(k % l == 0, "LRC requires k divisible by l");
  FASTPR_CHECK_MSG(n_ <= gf::kFieldSize, "LRC over GF(256) requires n<=256");

  generator_ = Matrix(n_, k_);
  for (int i = 0; i < k_; ++i) generator_.at(i, i) = 1;
  const int gs = k_ / l_;
  for (int j = 0; j < l_; ++j) {
    for (int t = 0; t < gs; ++t) generator_.at(k_ + j, j * gs + t) = 1;
  }
  if (g_ > 0) {
    // Global parities: Cauchy rows with x in [0,g) and y = g + column,
    // offset past the local-XOR structure so rows stay independent.
    const Matrix c = Matrix::cauchy(g_, k_);
    for (int r = 0; r < g_; ++r) {
      for (int col = 0; col < k_; ++col) {
        generator_.at(k_ + l_ + r, col) = c.at(r, col);
      }
    }
  }
}

std::string LrcCode::name() const {
  std::ostringstream os;
  os << "LRC(k=" << k_ << ",l=" << l_ << ",g=" << g_ << ")";
  return os.str();
}

int LrcCode::group_of(int index) const {
  FASTPR_CHECK(index >= 0 && index < n_);
  const int gs = k_ / l_;
  if (index < k_) return index / gs;
  if (index < k_ + l_) return index - k_;
  return -1;  // global parity
}

int LrcCode::repair_fetch_count(int lost_index) const {
  return group_of(lost_index) >= 0 ? k_ / l_ : k_;
}

std::vector<int> LrcCode::helper_candidates(int lost_index) const {
  const int group = group_of(lost_index);
  std::vector<int> candidates;
  if (group >= 0) {
    // Data or local-parity chunk: its local group plus the group parity.
    const int gs = k_ / l_;
    for (int t = 0; t < gs; ++t) {
      const int idx = group * gs + t;
      if (idx != lost_index) candidates.push_back(idx);
    }
    if (k_ + group != lost_index) candidates.push_back(k_ + group);
    return candidates;
  }
  // Global parity: rebuilt from the k data chunks.
  for (int i = 0; i < k_; ++i) candidates.push_back(i);
  return candidates;
}

std::vector<int> LrcCode::repair_helpers(
    int lost_index, const std::vector<bool>& available) const {
  FASTPR_CHECK(static_cast<int>(available.size()) == n_);
  FASTPR_CHECK(lost_index >= 0 && lost_index < n_);

  const int group = group_of(lost_index);
  if (group >= 0) {
    // Local repair: the rest of the group plus its local parity.
    const int gs = k_ / l_;
    std::vector<int> helpers;
    bool all_available = true;
    auto consider = [&](int idx) {
      if (idx == lost_index) return;
      if (available[static_cast<size_t>(idx)]) {
        helpers.push_back(idx);
      } else {
        all_available = false;
      }
    };
    for (int t = 0; t < gs; ++t) consider(group * gs + t);
    consider(k_ + group);
    if (all_available) return helpers;
  }

  // Global-parity repair or degraded local group: fall back to solving
  // over everything that is still available.
  std::vector<int> candidates;
  for (int i = 0; i < n_; ++i) {
    if (i != lost_index && available[static_cast<size_t>(i)]) {
      candidates.push_back(i);
    }
  }
  const auto combo = solve_combination(lost_index, candidates);
  FASTPR_CHECK_MSG(combo.has_value(),
                   "LRC chunk " << lost_index
                                << " unrepairable from available set");
  std::vector<int> helpers;
  helpers.reserve(combo->size());
  for (const auto& [idx, coef] : *combo) {
    (void)coef;
    helpers.push_back(idx);
  }
  return helpers;
}

void LrcCode::encode(const std::vector<ConstChunk>& data,
                     const std::vector<MutChunk>& parity) const {
  FASTPR_CHECK(static_cast<int>(data.size()) == k_);
  FASTPR_CHECK(static_cast<int>(parity.size()) == l_ + g_);
  const size_t size = data.front().size();
  for (const auto& d : data) FASTPR_CHECK(d.size() == size);
  for (const auto& p : parity) FASTPR_CHECK(p.size() == size);

  for (int r = 0; r < l_ + g_; ++r) {
    MutChunk out = parity[static_cast<size_t>(r)];
    std::fill(out.begin(), out.end(), 0);
    // Fused dot: one pass over the parity chunk for all k sources
    // (local-parity rows have mostly zero coefficients, which the dot
    // kernel compacts away).
    gf::dot_region_xor(out, std::span<const ConstChunk>(data),
                       parity_coefficients(k_ + r));
  }
}

std::optional<std::vector<std::pair<int, uint8_t>>>
LrcCode::solve_combination(int target,
                           const std::vector<int>& candidates) const {
  // Solve sum_i x_i * G_row(candidates[i]) == G_row(target):
  // k equations (one per data-chunk dimension), |candidates| unknowns.
  const int m = static_cast<int>(candidates.size());
  // Augmented matrix: k rows, m+1 cols.
  Matrix aug(k_, m + 1);
  for (int eq = 0; eq < k_; ++eq) {
    for (int i = 0; i < m; ++i) {
      aug.at(eq, i) = generator_.at(candidates[static_cast<size_t>(i)], eq);
    }
    aug.at(eq, m) = generator_.at(target, eq);
  }

  // Gaussian elimination with partial pivoting over GF(2^8).
  std::vector<int> pivot_col_of_row(static_cast<size_t>(k_), -1);
  int row = 0;
  for (int col = 0; col < m && row < k_; ++col) {
    int pivot = -1;
    for (int r = row; r < k_; ++r) {
      if (aug.at(r, col) != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) continue;
    if (pivot != row) {
      for (int c = 0; c <= m; ++c) std::swap(aug.at(pivot, c), aug.at(row, c));
    }
    const uint8_t piv_inv = gf::inv(aug.at(row, col));
    for (int c = 0; c <= m; ++c) {
      aug.at(row, c) = gf::mul(aug.at(row, c), piv_inv);
    }
    for (int r = 0; r < k_; ++r) {
      if (r == row) continue;
      const uint8_t factor = aug.at(r, col);
      if (factor == 0) continue;
      for (int c = 0; c <= m; ++c) {
        aug.at(r, c) = static_cast<uint8_t>(aug.at(r, c) ^
                                            gf::mul(factor, aug.at(row, c)));
      }
    }
    pivot_col_of_row[static_cast<size_t>(row)] = col;
    ++row;
  }
  // Consistency: any zero row with nonzero RHS means no solution.
  for (int r = row; r < k_; ++r) {
    if (aug.at(r, m) != 0) return std::nullopt;
  }

  // Particular solution: free variables = 0, pivot variables from RHS.
  std::vector<std::pair<int, uint8_t>> combo;
  for (int r = 0; r < row; ++r) {
    const int col = pivot_col_of_row[static_cast<size_t>(r)];
    const uint8_t coef = aug.at(r, m);
    if (coef != 0) {
      combo.emplace_back(candidates[static_cast<size_t>(col)], coef);
    }
  }
  return combo;
}

std::vector<uint8_t> LrcCode::parity_coefficients(int index) const {
  FASTPR_CHECK(index >= k_ && index < n_);
  std::vector<uint8_t> coeffs(static_cast<size_t>(k_));
  for (int c = 0; c < k_; ++c) {
    coeffs[static_cast<size_t>(c)] = generator_.at(index, c);
  }
  return coeffs;
}

std::vector<uint8_t> LrcCode::repair_coefficients(
    int lost_index, const std::vector<int>& helper_indices) const {
  const auto combo = solve_combination(lost_index, helper_indices);
  FASTPR_CHECK_MSG(combo.has_value(),
                   "helpers cannot express chunk " << lost_index);
  std::vector<uint8_t> coeffs(helper_indices.size(), 0);
  for (const auto& [idx, coef] : *combo) {
    const auto it =
        std::find(helper_indices.begin(), helper_indices.end(), idx);
    coeffs[static_cast<size_t>(
        std::distance(helper_indices.begin(), it))] = coef;
  }
  return coeffs;
}

bool LrcCode::decode(const std::vector<int>& erased,
                     const std::vector<MutChunk>& chunks) const {
  FASTPR_CHECK(static_cast<int>(chunks.size()) == n_);
  std::vector<bool> available(static_cast<size_t>(n_), true);
  for (int e : erased) {
    FASTPR_CHECK(e >= 0 && e < n_);
    available[static_cast<size_t>(e)] = false;
  }
  std::vector<int> pending = erased;

  // Iteratively repair whatever is currently expressible; a local repair
  // can unlock a global one and vice versa, so loop to a fixed point.
  bool progress = true;
  while (!pending.empty() && progress) {
    progress = false;
    for (auto it = pending.begin(); it != pending.end();) {
      std::vector<int> candidates;
      for (int i = 0; i < n_; ++i) {
        if (available[static_cast<size_t>(i)]) candidates.push_back(i);
      }
      const auto combo = solve_combination(*it, candidates);
      if (!combo.has_value()) {
        ++it;
        continue;
      }
      MutChunk out = chunks[static_cast<size_t>(*it)];
      std::fill(out.begin(), out.end(), 0);
      std::vector<ConstChunk> srcs;
      std::vector<uint8_t> coefs;
      srcs.reserve(combo->size());
      coefs.reserve(combo->size());
      for (const auto& [idx, coef] : *combo) {
        srcs.emplace_back(chunks[static_cast<size_t>(idx)]);
        coefs.push_back(coef);
      }
      gf::dot_region_xor(out, std::span<const ConstChunk>(srcs), coefs);
      available[static_cast<size_t>(*it)] = true;
      it = pending.erase(it);
      progress = true;
    }
  }
  return pending.empty();
}

}  // namespace fastpr::ec
