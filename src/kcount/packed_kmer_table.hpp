#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.hpp"

/// Flat open-addressing map from a packed canonical k-mer to a value: the
/// owner-side table of k-mer analysis.
///
/// A key is the k-mer's W packed 64-bit words exactly as `seq::Kmer::word`
/// reports them (MSB-first, zero past base k-1); k is global to the run, so
/// the words alone name the k-mer. Slots are probed linearly and kept at
/// most half full, doubling when an insert would pass that. Nothing is ever
/// erased: k-mer analysis reads the table once at the end and drops it.
///
/// A free slot holds all-ones words. No canonical k-mer packs to that: for
/// k < 32W some bit past base k-1 would be set, and for k = 32W the pattern
/// is all-T, whose reverse complement all-A is smaller. All-zero words, by
/// contrast, are the real all-A k-mer, which is why zero cannot mark a free
/// slot.
///
/// There are no locks: exactly one rank, the k-mers' owner, reads and
/// writes its table.
namespace hipmer::kcount {

template <int W>
using PackedWords = std::array<std::uint64_t, W>;

/// Slot hash of packed words; independent of k and of the owner mapping.
template <int W>
[[nodiscard]] inline std::uint64_t packed_words_hash(
    const PackedWords<W>& words) noexcept {
  std::uint64_t h = words[0];
  for (int w = 1; w < W; ++w)
    h = util::hash_combine(h, words[static_cast<std::size_t>(w)]);
  return h;
}

template <int W, typename V>
class PackedKmerTable {
 public:
  using Words = PackedWords<W>;

  /// Sized so that `expected` entries fit without growing.
  explicit PackedKmerTable(std::size_t expected = 0) {
    std::size_t slots = 16;
    while (slots < 2 * expected) slots <<= 1;
    slots_.assign(slots, Slot{kFree, V{}});
  }

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] V* find(const Words& key) noexcept {
    Slot& s = slots_[find_slot(key)];
    return s.key == kFree ? nullptr : &s.value;
  }
  [[nodiscard]] const V* find(const Words& key) const noexcept {
    const Slot& s = slots_[find_slot(key)];
    return s.key == kFree ? nullptr : &s.value;
  }

  /// The value stored under `key`, value-initialised on first use;
  /// `*inserted` (if given) says whether this call created it.
  V& find_or_insert(const Words& key, bool* inserted = nullptr) {
    std::size_t i = find_slot(key);
    const bool fresh = slots_[i].key == kFree;
    if (fresh) {
      if (2 * (size_ + 1) > slots_.size()) {
        grow();
        i = find_slot(key);
      }
      slots_[i].key = key;
      ++size_;
    }
    if (inserted != nullptr) *inserted = fresh;
    return slots_[i].value;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// `fn(const Words&, const V&)` for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_)
      if (s.key != kFree) fn(s.key, s.value);
  }

 private:
  struct Slot {
    Words key;
    V value;
  };

  static constexpr Words kFree = [] {
    Words w{};
    for (auto& x : w) x = ~std::uint64_t{0};
    return w;
  }();

  [[nodiscard]] std::size_t find_slot(const Words& key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>(util::fmix64(packed_words_hash<W>(key))) &
        mask;
    while (slots_[i].key != kFree && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(2 * slots_.size(), Slot{kFree, V{}});
    old.swap(slots_);
    for (const Slot& s : old)
      if (s.key != kFree) slots_[find_slot(s.key)] = s;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace hipmer::kcount
