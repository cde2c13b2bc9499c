#pragma once

#include <cstdint>

#include "seq/extensions.hpp"

/// Per-k-mer occurrence and extension tallies.
///
/// During counting, each canonical k-mer accumulates its total occurrence
/// count plus, for each side, how many *high-quality* sightings of each of
/// the four bases were observed adjacent to it. After counting, the tally
/// collapses into the UFX record Meraculous works with: a depth plus the
/// two-letter extension code (§2 of the paper).
namespace hipmer::kcount {

struct KmerTally {
  std::uint32_t count = 0;
  std::uint16_t left[4] = {0, 0, 0, 0};
  std::uint16_t right[4] = {0, 0, 0, 0};

  void add_count(std::uint32_t n = 1) noexcept {
    // Saturate: wheat-like heavy hitters overflow 32 bits only at absurd
    // scale, but the 16-bit extension tallies saturate routinely.
    const std::uint64_t next = std::uint64_t{count} + n;
    count = next > 0xffffffffULL ? 0xffffffffU : static_cast<std::uint32_t>(next);
  }

  static void add_sat16(std::uint16_t& slot, std::uint32_t n = 1) noexcept {
    const std::uint32_t next = std::uint32_t{slot} + n;
    slot = next > 0xffffU ? 0xffffU : static_cast<std::uint16_t>(next);
  }

  void add_left(std::uint8_t base_code, std::uint32_t n = 1) noexcept {
    add_sat16(left[base_code], n);
  }
  void add_right(std::uint8_t base_code, std::uint32_t n = 1) noexcept {
    add_sat16(right[base_code], n);
  }

  /// Merge another tally into this one (commutative + associative, so the
  /// distributed reduction is order-independent).
  void merge(const KmerTally& o) noexcept {
    add_count(o.count);
    for (int b = 0; b < 4; ++b) {
      add_sat16(left[b], o.left[b]);
      add_sat16(right[b], o.right[b]);
    }
  }
};

/// Finalized UFX record: count ("depth") + unique high-quality extensions.
struct KmerSummary {
  std::uint32_t depth = 0;
  char left_ext = seq::kExtNone;
  char right_ext = seq::kExtNone;

  [[nodiscard]] seq::ExtPair ext() const noexcept {
    return seq::ExtPair{left_ext, right_ext};
  }
};

/// Collapse one side's base tallies into an extension code: the unique base
/// with support >= `min_ext_count` ('F' if two or more qualify, 'X' if
/// none).
[[nodiscard]] inline char resolve_extension(const std::uint16_t tallies[4],
                                            std::uint32_t min_ext_count) {
  int qualified = -1;
  for (int b = 0; b < 4; ++b) {
    if (tallies[b] >= min_ext_count) {
      if (qualified >= 0) return seq::kExtFork;
      qualified = b;
    }
  }
  if (qualified < 0) return seq::kExtNone;
  return seq::code_to_base(static_cast<std::uint8_t>(qualified));
}

[[nodiscard]] inline KmerSummary summarize(const KmerTally& tally,
                                           std::uint32_t min_ext_count) {
  KmerSummary s;
  s.depth = tally.count;
  s.left_ext = resolve_extension(tally.left, min_ext_count);
  s.right_ext = resolve_extension(tally.right, min_ext_count);
  return s;
}

}  // namespace hipmer::kcount
