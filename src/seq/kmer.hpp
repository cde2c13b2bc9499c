#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>

#include "seq/dna.hpp"
#include "util/hash.hpp"

/// Packed k-mer type.
///
/// K-mers are the keys of every major distributed hash table in the
/// pipeline, so representation is compact: 2 bits per base in a fixed array
/// of 64-bit words, plus the runtime length k (HipMer runs one k per pass
/// but the gap-closing mini-assembly iterates over *several* k values, so k
/// is per-object, not global). `MAX_K` bounds k at compile time; the default
/// of 64 covers the paper's k=51 wheat runs with two words.
///
/// Layout: base i lives in word i/32 at bits [62-2*(i%32), 63-2*(i%32)] —
/// MSB-first, so the word array read as a big-endian digit string *is* the
/// base string. Two invariants follow and are maintained by every kernel:
///   1. lexicographic order on bases == numeric order on the word array
///      (A=0 < C=1 < G=2 < T=3 and the leftmost base is most significant);
///   2. all bit positions past base k-1 are zero, so equality and hashing
///      can run over whole words without masking.
/// Every hot kernel (revcomp, canonical, shifts, compare, hash) therefore
/// operates on whole 64-bit words; the per-base loops survive only as
/// `*_reference` implementations for the property tests.
///
/// Canonical form: a k-mer and its reverse complement denote the same
/// molecule; `canonical()` picks the lexicographically smaller of the two so
/// both strands hash to the same table entry.
namespace hipmer::seq {

template <int MAX_K = 64>
class Kmer {
  static_assert(MAX_K >= 1 && MAX_K <= 1024, "unreasonable MAX_K");

 public:
  static constexpr int kMaxK = MAX_K;
  static constexpr int kWords = (MAX_K + 31) / 32;

  Kmer() = default;

  /// All-A k-mer of length k: the seed the rolling scanner shifts into.
  [[nodiscard]] static Kmer of_length(int k) noexcept {
    assert(k >= 1 && k <= MAX_K);
    Kmer km;
    km.k_ = static_cast<std::uint16_t>(k);
    return km;
  }

  /// Parse from a DNA string (all bases must be ACGT). Packs 32 bases per
  /// word with accumulate-and-shift instead of per-base masking.
  [[nodiscard]] static Kmer from_string(std::string_view s) {
    assert(s.size() >= 1 && s.size() <= MAX_K);
    Kmer km;
    km.k_ = static_cast<std::uint16_t>(s.size());
    std::size_t i = 0;
    for (int w = 0; i < s.size(); ++w) {
      std::uint64_t word = 0;
      int packed = 0;
      for (; packed < 32 && i < s.size(); ++packed, ++i) {
        const std::uint8_t code = base_to_code(s[i]);
        assert(code != kBaseInvalid);
        word = (word << 2) | code;
      }
      km.words_[static_cast<std::size_t>(w)] = word << (2 * (32 - packed));
    }
    return km;
  }

  /// Rebuild a k-mer of length k from its first (k+31)/32 packed words, as
  /// `word()` reports them: the inverse of shipping a k-mer as bare words
  /// when both ends know k.
  [[nodiscard]] static Kmer from_words(int k,
                                       const std::uint64_t* words) noexcept {
    Kmer km = of_length(k);
    for (int w = 0; w < km.words_used(); ++w)
      km.words_[static_cast<std::size_t>(w)] = words[w];
    return km;
  }

  [[nodiscard]] int k() const noexcept { return k_; }

  /// Packed word i: bases 32i .. 32i+31, MSB-first, zero past base k-1.
  [[nodiscard]] std::uint64_t word(int i) const noexcept {
    assert(i >= 0 && i < kWords);
    return words_[static_cast<std::size_t>(i)];
  }

  /// 2-bit code of base at position i (0 = leftmost/5' end).
  [[nodiscard]] std::uint8_t base(int i) const noexcept {
    assert(i >= 0 && i < k_);
    return static_cast<std::uint8_t>(
        (words_[static_cast<std::size_t>(i >> 5)] >> (62 - (i & 31) * 2)) & 3);
  }

  void set_base(int i, std::uint8_t code) noexcept {
    assert(i >= 0 && i < MAX_K && code <= 3);
    auto& w = words_[static_cast<std::size_t>(i >> 5)];
    const int shift = 62 - (i & 31) * 2;
    w = (w & ~(std::uint64_t{3} << shift)) | (std::uint64_t{code} << shift);
  }

  [[nodiscard]] std::string to_string() const {
    std::string s(static_cast<std::size_t>(k_), 'A');
    for (int i = 0; i < k_; ++i) s[static_cast<std::size_t>(i)] = code_to_base(base(i));
    return s;
  }

  /// Reverse complement (same k): per-word SWAR 2-bit reversal + complement,
  /// word swap, then one cross-word funnel shift to re-align to base 0.
  [[nodiscard]] Kmer revcomp() const noexcept {
    Kmer rc;
    rc.k_ = k_;
    const int used = words_used();
    for (int w = 0; w < used; ++w)
      rc.words_[static_cast<std::size_t>(used - 1 - w)] =
          revcomp_word(words_[static_cast<std::size_t>(w)]);
    // The k result bases now sit in slots used*32-k .. used*32-1 (the
    // complemented former padding leads); shift them home to slots 0..k-1.
    // The shift simultaneously discards the leading junk and zero-fills the
    // tail, restoring invariant 2.
    const int shift = (used * 32 - k_) * 2;
    if (shift != 0) {
      for (int w = 0; w + 1 < used; ++w)
        rc.words_[static_cast<std::size_t>(w)] =
            (rc.words_[static_cast<std::size_t>(w)] << shift) |
            (rc.words_[static_cast<std::size_t>(w + 1)] >> (64 - shift));
      rc.words_[static_cast<std::size_t>(used - 1)] <<= shift;
    }
    return rc;
  }

  /// Lexicographic comparison against the reverse complement; canonical is
  /// the smaller. One revcomp + one word-wise compare.
  [[nodiscard]] Kmer canonical() const noexcept {
    const Kmer rc = revcomp();
    return *this <= rc ? *this : rc;
  }

  [[nodiscard]] bool is_canonical() const noexcept {
    return *this <= revcomp();
  }

  /// In-place: drop the leftmost base and append `code` on the right — one
  /// step *forward* along a sequence. Funnel shift across the word array.
  void push_back_code(std::uint8_t code) noexcept {
    assert(code <= 3);
    const int used = words_used();
    for (int w = 0; w + 1 < used; ++w)
      words_[static_cast<std::size_t>(w)] =
          (words_[static_cast<std::size_t>(w)] << 2) |
          (words_[static_cast<std::size_t>(w + 1)] >> 62);
    words_[static_cast<std::size_t>(used - 1)] <<= 2;
    // Slot k-1 is zero after the shift (it received former slot k, which
    // invariant 2 keeps clear), so OR-ing the new base in suffices.
    words_[static_cast<std::size_t>((k_ - 1) >> 5)] |=
        std::uint64_t{code} << (62 - ((k_ - 1) & 31) * 2);
  }

  /// In-place: prepend `code` on the left and drop the rightmost base — one
  /// step *backward* along a sequence.
  void push_front_code(std::uint8_t code) noexcept {
    assert(code <= 3);
    const int used = words_used();
    for (int w = used - 1; w > 0; --w)
      words_[static_cast<std::size_t>(w)] =
          (words_[static_cast<std::size_t>(w)] >> 2) |
          (words_[static_cast<std::size_t>(w - 1)] << 62);
    words_[0] >>= 2;
    words_[0] |= std::uint64_t{code} << 62;
    // The dropped base slid from slot k-1 into slot k; clear it unless it
    // fell off the end of the last used word.
    const int r = k_ & 31;
    if (r != 0)
      words_[static_cast<std::size_t>((k_ - 1) >> 5)] &=
          ~std::uint64_t{0} << (64 - 2 * r);
  }

  /// Drop the leftmost base and append `code` on the right: the k-mer one
  /// step *forward* along a sequence.
  [[nodiscard]] Kmer shifted_left(std::uint8_t code) const noexcept {
    Kmer out = *this;
    out.push_back_code(code);
    return out;
  }

  /// Prepend `code` on the left and drop the rightmost base: one step
  /// *backward* along a sequence.
  [[nodiscard]] Kmer shifted_right(std::uint8_t code) const noexcept {
    Kmer out = *this;
    out.push_front_code(code);
    return out;
  }

  [[nodiscard]] std::uint8_t first_base() const noexcept { return base(0); }
  [[nodiscard]] std::uint8_t last_base() const noexcept { return base(k_ - 1); }

  /// 64-bit fingerprint — the hash every distributed structure keys on.
  /// Mixes only the occupied words (invariant 2 keeps the rest zero).
  [[nodiscard]] std::uint64_t hash() const noexcept {
    std::uint64_t h = util::mix64(static_cast<std::uint64_t>(k_));
    const int used = words_used();
    for (int w = 0; w < used; ++w)
      h = util::hash_combine(h, words_[static_cast<std::size_t>(w)]);
    return h;
  }

  friend bool operator==(const Kmer& a, const Kmer& b) noexcept {
    if (a.k_ != b.k_) return false;
    const int used = a.words_used();
    for (int w = 0; w < used; ++w)
      if (a.words_[static_cast<std::size_t>(w)] != b.words_[static_cast<std::size_t>(w)]) return false;
    return true;
  }
  friend bool operator!=(const Kmer& a, const Kmer& b) noexcept {
    return !(a == b);
  }

  /// Lexicographic order on the base sequence (A < C < G < T). With the
  /// MSB-first layout this is numeric order on the word array; zero padding
  /// sorts like trailing 'A's, so equal prefixes tie-break on k — exactly
  /// string order.
  friend bool operator<(const Kmer& a, const Kmer& b) noexcept {
    for (int w = 0; w < kWords; ++w) {
      const std::uint64_t aw = a.words_[static_cast<std::size_t>(w)];
      const std::uint64_t bw = b.words_[static_cast<std::size_t>(w)];
      if (aw != bw) return aw < bw;
    }
    return a.k_ < b.k_;
  }
  friend bool operator<=(const Kmer& a, const Kmer& b) noexcept {
    return !(b < a);
  }

  // ---- reference kernels ----
  //
  // Base-by-base implementations retained solely so the property tests can
  // cross-check the word-parallel kernels above. Not used on any hot path.

  [[nodiscard]] Kmer revcomp_reference() const noexcept {
    Kmer rc;
    rc.k_ = k_;
    for (int i = 0; i < k_; ++i)
      rc.set_base(k_ - 1 - i, complement_code(base(i)));
    return rc;
  }

  [[nodiscard]] Kmer canonical_reference() const noexcept {
    const Kmer rc = revcomp_reference();
    return !less_reference(rc, *this) ? *this : rc;
  }

  [[nodiscard]] Kmer shifted_left_reference(std::uint8_t code) const noexcept {
    Kmer out;
    out.k_ = k_;
    for (int i = 0; i + 1 < k_; ++i) out.set_base(i, base(i + 1));
    out.set_base(k_ - 1, code);
    return out;
  }

  [[nodiscard]] Kmer shifted_right_reference(std::uint8_t code) const noexcept {
    Kmer out;
    out.k_ = k_;
    for (int i = 0; i + 1 < k_; ++i) out.set_base(i + 1, base(i));
    out.set_base(0, code);
    return out;
  }

  [[nodiscard]] static bool less_reference(const Kmer& a, const Kmer& b) noexcept {
    const int n = a.k_ < b.k_ ? a.k_ : b.k_;
    for (int i = 0; i < n; ++i) {
      if (a.base(i) != b.base(i)) return a.base(i) < b.base(i);
    }
    return a.k_ < b.k_;
  }

  /// Repacks every base through set_base and rehashes: identical to hash()
  /// on a well-formed k-mer, different whenever a word kernel leaves stale
  /// bits past base k-1.
  [[nodiscard]] std::uint64_t hash_reference() const noexcept {
    Kmer repacked;
    repacked.k_ = k_;
    for (int i = 0; i < k_; ++i) repacked.set_base(i, base(i));
    return repacked.hash();
  }

 private:
  [[nodiscard]] int words_used() const noexcept { return (k_ + 31) >> 5; }

  /// Reverse the 32 2-bit fields of a word and complement each (A<->T,
  /// C<->G is ~code per field): pair swap, nibble swap, byte swap.
  [[nodiscard]] static std::uint64_t revcomp_word(std::uint64_t w) noexcept {
    w = ~w;
    w = ((w & 0x3333333333333333ULL) << 2) | ((w >> 2) & 0x3333333333333333ULL);
    w = ((w & 0x0F0F0F0F0F0F0F0FULL) << 4) | ((w >> 4) & 0x0F0F0F0F0F0F0F0FULL);
    return __builtin_bswap64(w);
  }

  std::array<std::uint64_t, kWords> words_{};
  std::uint16_t k_ = 0;
  /// Kmer ships verbatim through put_pod (UFX shard, contig wire header),
  /// so the tail bytes must be zeroed members with guaranteed copy
  /// semantics, not unspecified struct padding.
  [[maybe_unused]] std::uint16_t reserved_[3]{};
};

static_assert(sizeof(Kmer<64>) == 2 * sizeof(std::uint64_t) + 8,
              "Kmer must have no padding: it ships verbatim on the wire");

/// Hash functor for DistHashMap / std containers.
template <int MAX_K>
struct KmerHash {
  std::uint64_t operator()(const Kmer<MAX_K>& km) const noexcept {
    return km.hash();
  }
};

}  // namespace hipmer::seq
