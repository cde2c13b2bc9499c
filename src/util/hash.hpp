#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

/// Hashing primitives shared by every distributed data structure.
///
/// All of HipMer's distributed hash tables key on 64-bit fingerprints of
/// packed k-mers or contig-id pairs; the quality of these mixers directly
/// controls load balance across ranks, so they are the finalizers from
/// splitmix64 / murmur3, which pass SMHasher.
namespace hipmer::util {

/// splitmix64 finalizer: a bijective mixer over 64-bit values.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// murmur3 fmix64: second independent mixer, used where two decorrelated
/// hash functions of the same key are needed (e.g. Bloom filter double
/// hashing).
[[nodiscard]] constexpr std::uint64_t fmix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Combine two 64-bit hashes (boost::hash_combine style, 64-bit constant).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t v) noexcept {
  return seed ^ (mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

/// Hash an arbitrary byte string (FNV-1a core, mixed through splitmix64).
[[nodiscard]] inline std::uint64_t hash_bytes(const void* data,
                                              std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

[[nodiscard]] inline std::uint64_t hash_string(std::string_view s) noexcept {
  return hash_bytes(s.data(), s.size());
}

namespace detail {

/// CRC-32C lookup table for the reflected polynomial 0x82f63b78.
inline const std::uint32_t* crc32c_table() noexcept {
  static const auto tab = [] {
    struct Table {
      std::uint32_t entries[256];
    } t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1) ? (c >> 1) ^ 0x82f63b78U : c >> 1;
      t.entries[i] = c;
    }
    return t;
  }();
  return tab.entries;
}

/// Portable path: one table lookup per byte. `crc` is the raw
/// (un-inverted) running state, as Crc32 keeps it.
inline std::uint32_t crc32c_update_table(std::uint32_t crc,
                                         const unsigned char* p,
                                         std::size_t len) noexcept {
  const std::uint32_t* tab = crc32c_table();
  for (std::size_t i = 0; i < len; ++i)
    crc = (crc >> 8) ^ tab[(crc ^ p[i]) & 0xff];
  return crc;
}

#if defined(__x86_64__)
/// SSE4.2 path: the `crc32` instruction computes CRC-32C natively, eight
/// bytes per step. Call only where have_sse42() holds.
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, const unsigned char* p, std::size_t len) noexcept {
  std::uint64_t c = crc;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c = __builtin_ia32_crc32di(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; len > 0; ++p, --len) c32 = __builtin_ia32_crc32qi(c32, *p);
  return c32;
}

/// Whether this CPU has the SSE4.2 `crc32` instruction (probed once).
inline bool have_sse42() noexcept {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return yes;
}
#endif

}  // namespace detail

/// Incremental CRC-32C (Castagnoli, reflected polynomial 0x82f63b78) —
/// the one checksum behind every framed byte stream: transport envelopes
/// and fabric frames, checkpoint shards and manifests, the artifact cache,
/// the job journal and the server's line protocol. CRC-32C detects every
/// single-byte corruption and all burst errors up to 32 bits, so a flipped
/// byte in any of them is rejected instead of read as data. On x86-64 CPUs
/// with SSE4.2 the hardware instruction computes it (chosen at run time);
/// elsewhere a table loop gives the same values.
class Crc32 {
 public:
  void update(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
    if (detail::have_sse42()) {
      state_ = detail::crc32c_update_sse42(state_, p, len);
      return;
    }
#endif
    state_ = detail::crc32c_update_table(state_, p, len);
  }

  /// Finalized checksum of everything fed so far (update may continue).
  [[nodiscard]] std::uint32_t value() const noexcept { return ~state_; }

  void reset() noexcept { state_ = 0xffffffffU; }

 private:
  std::uint32_t state_ = 0xffffffffU;
};

[[nodiscard]] inline std::uint32_t crc32c(const void* data,
                                          std::size_t len) noexcept {
  Crc32 crc;
  crc.update(data, len);
  return crc.value();
}

}  // namespace hipmer::util
