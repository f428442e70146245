#pragma once

#include <cstdint>
#include <string_view>

/// \file hash.hpp
/// Stable string hashing shared by every subsystem that addresses data by
/// content: the schedule cache's on-disk entry names and in-memory shard
/// placement, and the service engine's pipeline-map shards.
///
/// Names use the raw FNV-1a value; placement goes through `mix64` first.
/// FNV-1a's low bits are weak: bit 0 is the XOR of the low bits of every
/// input byte, so keys that are permutations of one another (every
/// permutation pattern's cache key) all share it, and `hash & (n - 1)`
/// leaves half the stripes empty.
///
/// FNV-1a is used instead of `std::hash` because the latter is
/// implementation-defined: entry filenames must mean the same thing on
/// every machine, and shard placement must be reproducible across
/// standard-library versions (a test pinning "key X lands on shard 3"
/// would otherwise be a portability bug).

namespace optdm::util {

/// FNV-1a, 64-bit, over the bytes of `text`.
constexpr std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// 64-bit finalizer (the MurmurHash3 `fmix64` avalanche): every output bit
/// depends on every input bit, so any bit range of the result is a fair
/// bucket index.  Used for placement only, never for names.
constexpr std::uint64_t mix64(std::uint64_t hash) noexcept {
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ULL;
  hash ^= hash >> 33;
  return hash;
}

}  // namespace optdm::util
