#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "seq/kmer_scanner.hpp"
#include "seq/packed_read_arena.hpp"
#include "seq/read.hpp"

namespace hipmer::seq {

/// Non-owning read-set handle passed into the compute stages (k-mer
/// analysis, alignment, gap closing). Wraps the pipeline's resident
/// `PackedReads` arena or, for tests, tools and benches, a bare
/// `std::vector<seq::Read>`; both expose identical element accessors, so
/// every stage is written once and produces the same bytes from either.
class ReadSetView {
 public:
  ReadSetView() = default;
  ReadSetView(const PackedReads& reads) noexcept : packed_(&reads) {}  // NOLINT
  ReadSetView(const std::vector<Read>& reads) noexcept  // NOLINT
      : plain_(&reads) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return packed_ != nullptr ? packed_->size()
                              : (plain_ != nullptr ? plain_->size() : 0);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] std::uint32_t length(std::size_t i) const noexcept {
    return packed_ != nullptr
               ? packed_->length(i)
               : static_cast<std::uint32_t>((*plain_)[i].seq.size());
  }

  [[nodiscard]] std::string_view name(std::size_t i) const noexcept {
    return packed_ != nullptr ? packed_->name(i)
                              : std::string_view((*plain_)[i].name);
  }

  /// Sequence characters; decodes into `scratch` from the arena, a
  /// zero-copy view into a vector.
  [[nodiscard]] std::string_view seq(std::size_t i,
                                     std::string& scratch) const {
    if (packed_ == nullptr) return (*plain_)[i].seq;
    packed_->decode_seq(i, scratch);
    return scratch;
  }

  [[nodiscard]] std::string_view quals(std::size_t i,
                                       std::string& scratch) const {
    if (packed_ == nullptr) return (*plain_)[i].quals;
    packed_->decode_quals(i, scratch);
    return scratch;
  }

  /// Base-code at (read, position), as base_to_code would report it.
  [[nodiscard]] std::uint8_t code(std::size_t i,
                                  std::uint32_t pos) const noexcept {
    return packed_ != nullptr ? packed_->view(i).code(pos)
                              : base_to_code((*plain_)[i].seq[pos]);
  }

  /// Rolling canonical k-mer scanner over read i: straight off the packed
  /// words from the arena, over the string from a vector. The view (and
  /// its backing container) must outlive the scanner.
  template <int MAX_K>
  [[nodiscard]] KmerScanner<MAX_K> scanner(std::size_t i, int k) const {
    if (packed_ != nullptr) return KmerScanner<MAX_K>(packed_->view(i), k);
    return KmerScanner<MAX_K>(std::string_view((*plain_)[i].seq), k);
  }

 private:
  const PackedReads* packed_ = nullptr;
  const std::vector<Read>* plain_ = nullptr;
};

}  // namespace hipmer::seq
