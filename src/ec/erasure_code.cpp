#include "ec/erasure_code.h"

#include <algorithm>

#include "gf/gf256.h"
#include "util/check.h"

namespace fastpr::ec {

void ErasureCode::repair_chunk(int lost_index,
                               const std::vector<int>& helper_indices,
                               const std::vector<ConstChunk>& helper_data,
                               MutChunk out) const {
  FASTPR_CHECK(helper_indices.size() == helper_data.size());
  const auto coeffs = repair_coefficients(lost_index, helper_indices);
  std::fill(out.begin(), out.end(), 0);
  // Fused dot: one pass over the lost chunk for every helper stream
  // (sizes are checked against out by the span overload; zero
  // coefficients, e.g. an LRC helper the solution ignores, are skipped).
  gf::dot_region_xor(out, std::span<const ConstChunk>(helper_data), coeffs);
}

bool ErasureCode::can_decode(const std::vector<int>& erased) const {
  std::vector<uint8_t> scratch(static_cast<size_t>(n()), 0);
  std::vector<MutChunk> chunks;
  chunks.reserve(scratch.size());
  for (uint8_t& byte : scratch) chunks.emplace_back(&byte, 1);
  return decode(erased, chunks);
}

std::vector<std::vector<uint8_t>> encode_stripe(
    const ErasureCode& code, const std::vector<std::vector<uint8_t>>& data) {
  FASTPR_CHECK(static_cast<int>(data.size()) == code.k());
  const size_t chunk_size = data.front().size();
  for (const auto& d : data) FASTPR_CHECK(d.size() == chunk_size);

  std::vector<std::vector<uint8_t>> stripe = data;
  stripe.resize(static_cast<size_t>(code.n()),
                std::vector<uint8_t>(chunk_size, 0));

  std::vector<ConstChunk> data_spans;
  data_spans.reserve(data.size());
  for (const auto& d : data) data_spans.emplace_back(d);

  std::vector<MutChunk> parity_spans;
  for (int i = code.k(); i < code.n(); ++i) {
    parity_spans.emplace_back(stripe[static_cast<size_t>(i)]);
  }
  code.encode(data_spans, parity_spans);
  return stripe;
}

}  // namespace fastpr::ec
