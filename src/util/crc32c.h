// CRC-32C (Castagnoli) — the checksum storage systems use for on-disk
// chunk integrity (latent sector errors are a core motivation of
// predictive repair: disks go bad gradually, not atomically).
//
// crc32c() picks its path once per process from CPU features: the
// SSE4.2 `crc32` instruction, 8 bytes per step, where the host has it,
// else crc32c_portable(), a software 8-way slicing table. Both compute
// the same function; the portable one is also the reference the tests
// check the hardware path against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace fastpr {

/// CRC-32C of `data`, seeded by `crc` (pass 0 for a fresh checksum;
/// chain calls to checksum streamed data).
uint32_t crc32c(std::span<const uint8_t> data, uint32_t crc = 0);

/// The slicing-by-8 software CRC-32C: crc32c() on hosts without SSE4.2.
uint32_t crc32c_portable(std::span<const uint8_t> data, uint32_t crc = 0);

/// The path crc32c() takes on this host: "sse4.2" or "portable".
const char* crc32c_path();

}  // namespace fastpr
