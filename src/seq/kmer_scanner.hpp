#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "seq/kmer.hpp"
#include "seq/packed_read_arena.hpp"

/// Zero-allocation rolling canonical k-mer scanner.
///
/// Streams a sequence once, maintaining the forward k-mer *and* its reverse
/// complement incrementally — two O(words) funnel shifts per base — so
/// `canonical()` at each position is a single word-wise compare instead of a
/// fresh O(k) revcomp. A non-ACGT character resets the run counter and the
/// scan restarts at the next base, so a single 'N' costs exactly the k-1
/// windows that overlap it (the seed implementation rejected whole reads).
///
/// Accepts either a character sequence or a `PackedSeqView`: the packed
/// source pulls 2-bit codes straight out of the arena words (same MSB-first
/// layout as `Kmer`) and consults the exception list through a cursor that
/// advances in lockstep with the scan, so packed reads feed k-mer
/// extraction without ever decoding to chars.
///
/// The inner loop touches only the scanner's own value members: no heap
/// allocation anywhere (enforced by a counting-allocator test in
/// tests/test_seq.cpp). Every consumer that walks reads or contigs
/// k-mer-by-k-mer (k-mer analysis, seed index construction, depth
/// computation, gap-closing mini-assembly) uses this scanner, so orientation
/// conventions stay in one place.
namespace hipmer::seq {

template <int MAX_K>
class KmerScanner {
 public:
  KmerScanner(std::string_view sequence, int k) noexcept
      : seq_(sequence),
        k_(k),
        fwd_(Kmer<MAX_K>::of_length(k)),
        rc_(Kmer<MAX_K>::of_length(k)) {
    advance();
  }

  KmerScanner(const PackedSeqView& view, int k) noexcept
      : k_(k),
        packed_(view),
        is_packed_(true),
        fwd_(Kmer<MAX_K>::of_length(k)),
        rc_(Kmer<MAX_K>::of_length(k)) {
    advance();
  }

  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Window start position within the sequence.
  [[nodiscard]] std::size_t position() const noexcept {
    return next_ - static_cast<std::size_t>(k_);
  }

  /// Forward-strand k-mer at the current window.
  [[nodiscard]] const Kmer<MAX_K>& forward() const noexcept { return fwd_; }
  /// Its reverse complement.
  [[nodiscard]] const Kmer<MAX_K>& reverse() const noexcept { return rc_; }

  [[nodiscard]] bool is_flipped() const noexcept { return rc_ < fwd_; }

  /// Canonical form (the smaller of forward / reverse complement).
  [[nodiscard]] const Kmer<MAX_K>& canonical() const noexcept {
    return is_flipped() ? rc_ : fwd_;
  }

  /// Advance to the next valid window.
  void next() noexcept { advance(); }

 private:
  void advance() noexcept {
    // Push bases until k consecutive valid ones have been seen; the rolling
    // pair then holds exactly the window ending at next_. During warm-up the
    // shifts run over stale content, which the k-th push fully displaces.
    const std::size_t n = is_packed_ ? packed_.length : seq_.size();
    while (next_ < n) {
      std::uint8_t code;
      if (is_packed_) {
        const auto i = static_cast<std::uint32_t>(next_);
        if (exc_next_ < packed_.except_count &&
            packed_.except_pos[exc_next_] == i)
          code = base_to_code(packed_.except_chr[exc_next_++]);
        else
          code = packed_.word_code(i);
      } else {
        code = base_to_code(seq_[next_]);
      }
      ++next_;
      if (code == kBaseInvalid) {
        run_ = 0;
        continue;
      }
      fwd_.push_back_code(code);
      rc_.push_front_code(complement_code(code));
      if (++run_ >= static_cast<std::size_t>(k_)) return;
    }
    done_ = true;
  }

  std::string_view seq_;
  int k_;
  PackedSeqView packed_{};
  bool is_packed_ = false;
  std::uint32_t exc_next_ = 0;
  std::size_t run_ = 0;
  std::size_t next_ = 0;
  Kmer<MAX_K> fwd_;
  Kmer<MAX_K> rc_;
  bool done_ = false;
};

/// Extract the forward k-mer of every valid window of `sequence` into `out`
/// (cleared first). Windows containing non-ACGT characters are skipped and
/// the scan restarts after the offending base. Returns true iff at least one
/// k-mer was extracted.
template <int MAX_K>
bool extract_kmers(std::string_view sequence, int k,
                   std::vector<Kmer<MAX_K>>& out) {
  out.clear();
  for (KmerScanner<MAX_K> scan(sequence, k); !scan.done(); scan.next())
    out.push_back(scan.forward());
  return !out.empty();
}

}  // namespace hipmer::seq
