// Scrub-and-repair: latent sector errors end to end.
//
// The paper motivates predictive repair with the prevalence of latent
// sector errors [4] — damage the disk does NOT report at write time.
// This example runs the whole defensive loop on the byte-level testbed:
//   1. chunks live in checksummed stores (CRC-32C recorded at write);
//   2. silent corruption strikes a few stored chunks;
//   3. a background scrub pass finds the mismatches;
//   4. the damaged chunks are reconstructed from their stripes' healthy
//      peers and verified bit-exact.
//
//   ./examples/scrub_and_repair
#include <cstdio>

#include "agent/testbed.h"
#include "ec/rs_code.h"
#include "util/logging.h"
#include "util/units.h"

using namespace fastpr;

int main() {
  set_log_level(LogLevel::kWarn);
  ec::RsCode code(6, 4);

  agent::TestbedOptions opts;
  opts.num_storage = 12;
  opts.num_standby = 0;
  opts.chunk_bytes = 256 << 10;
  opts.packet_bytes = 64 << 10;
  opts.num_stripes = 25;
  opts.seed = 31;
  agent::Testbed tb(opts, code);

  // 1+2. Materialize some chunks on node 0 (writes record CRC-32C),
  // then corrupt two of them silently.
  auto& store = tb.store(0);
  const auto on_node = tb.layout().chunks_on(0);
  std::printf("node 0 holds %zu chunks; materializing and corrupting 2\n",
              on_node.size());
  std::vector<std::vector<uint8_t>> pristine;
  for (size_t i = 0; i < 4 && i < on_node.size(); ++i) {
    auto content = store.read_unthrottled(on_node[i]);
    pristine.push_back(*content);
    store.write_unthrottled(on_node[i], std::move(*content));
  }
  store.corrupt(on_node[0], 12345);
  store.corrupt(on_node[1], 777);

  // 3. Background scrub finds exactly the damaged chunks.
  const auto damaged = store.scrub();
  std::printf("scrub found %zu damaged chunks\n", damaged.size());
  for (const auto& chunk : damaged) {
    std::printf("  stripe %d index %d\n", chunk.stripe, chunk.index);
  }

  // 4. Reconstruct each damaged chunk from its healthy peers, in place.
  for (const auto& chunk : damaged) {
    // Pretend the chunk is lost: read k peers and decode.
    const auto& nodes = tb.layout().stripe_nodes(chunk.stripe);
    std::vector<bool> available(nodes.size(), true);
    available[static_cast<size_t>(chunk.index)] = false;
    const auto helpers = code.repair_helpers(chunk.index, available);
    std::vector<std::vector<uint8_t>> helper_data;
    helper_data.reserve(helpers.size());  // spans must stay valid
    for (int h : helpers) {
      auto data = tb.store(nodes[static_cast<size_t>(h)])
                      .read_unthrottled({chunk.stripe, h});
      helper_data.push_back(std::move(*data));
    }
    std::vector<ec::ConstChunk> helper_spans(helper_data.begin(),
                                             helper_data.end());
    std::vector<uint8_t> repaired(opts.chunk_bytes);
    code.repair_chunk(chunk.index, helpers, helper_spans, repaired);
    store.write_unthrottled(chunk, std::move(repaired));
  }

  const auto after = store.scrub();
  std::printf("scrub after repair: %zu damaged chunks\n", after.size());
  // The decode must restore the exact original bytes, not merely
  // checksum-consistent ones.
  bool exact = true;
  for (size_t i = 0; i < pristine.size(); ++i) {
    exact &= *store.read_unthrottled(on_node[i]) == pristine[i];
  }
  std::printf(after.empty() && exact
                  ? "all chunks healthy and byte-identical again\n"
                  : "REPAIR FAILED\n");
  return after.empty() && exact ? 0 : 1;
}
