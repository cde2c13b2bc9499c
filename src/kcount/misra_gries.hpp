#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/hash.hpp"

/// Misra–Gries frequent-items ("heavy hitter") sketch (§3.1).
///
/// With θ counter slots, every item x with true frequency f(x) >= n/θ is
/// guaranteed to be present in the summary, and each reported count f'(x)
/// satisfies f(x) - n/θ <= f'(x) <= f(x) — the lower-bound property the
/// paper relies on ("the reported count is a lower bound on the actual
/// count"). Summaries are *mergeable* (Agarwal et al.): combining two
/// summaries and decrementing by the (θ+1)-largest count preserves the
/// guarantee, which is what makes the parallel scheme of Cafaro & Tempesta
/// work — each rank sketches its local stream, then the sketches merge.
///
/// Storage is flat: parallel key/count arrays probed linearly, at most half
/// full, with count 0 marking a free slot (a tracked counter is always
/// >= 1). Nothing is allocated per item; the arrays double as counters
/// arrive, so a short stream never pays for θ slots. A decrement-all step
/// drops the counters that reach zero and re-places the survivors into a
/// spare pair of arrays, so probe chains never see holes; it costs O(θ)
/// and happens at most n/(θ+1) times.
namespace hipmer::kcount {

template <typename K, typename Hash = std::hash<K>>
class MisraGries {
 public:
  /// `capacity` is θ, the number of counter slots (paper default: 32,000).
  /// The arrays start small and double as counters arrive.
  explicit MisraGries(std::size_t capacity) : capacity_(capacity) {
    resize_slots(16);
  }

  /// Observe one occurrence of `key` (weight `w`).
  void offer(const K& key, std::uint64_t w = 1) {
    n_ += w;
    while (w > 0) {
      const std::size_t i = find_slot(key);
      if (counts_[i] != 0) {
        counts_[i] += w;
        return;
      }
      if (size_ < capacity_) {
        if (2 * (size_ + 1) > counts_.size()) {
          add(key, w);  // doubles the arrays first
        } else {
          place(i, key, w);
        }
        return;
      }
      // Decrement-all step, by the smaller of w and the current minimum so
      // the lower-bound guarantee holds for weighted offers; the key then
      // retries with what is left of its weight (a slot is free by then).
      // With unit weight every counter is >= 1, so the step is 1: no scan.
      std::uint64_t dec = w;
      if (w > 1)
        for (const std::uint64_t c : counts_)
          if (c != 0) dec = std::min(dec, c);
      decrement_all(dec);
      w -= dec;
    }
  }

  /// Merge another summary (mergeable-summaries construction): add counts
  /// key-wise, then reduce back to θ slots by subtracting the (θ+1)-largest
  /// count from everything.
  void merge(const MisraGries& other) {
    n_ += other.n_;
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
      if (other.counts_[i] != 0) add(other.keys_[i], other.counts_[i]);
    shrink_to_capacity();
  }

  /// Merge from a flat (key,count) list, e.g. gathered across ranks.
  void merge_items(const std::vector<std::pair<K, std::uint64_t>>& items,
                   std::uint64_t other_n) {
    n_ += other_n;
    for (const auto& [k, c] : items) add(k, c);
    shrink_to_capacity();
  }

  /// Estimated (lower-bound) count for `key`; 0 if not tracked.
  [[nodiscard]] std::uint64_t count(const K& key) const {
    return counts_[find_slot(key)];
  }

  /// All tracked items with estimated count >= `min_count`.
  [[nodiscard]] std::vector<std::pair<K, std::uint64_t>> items(
      std::uint64_t min_count = 1) const {
    std::vector<std::pair<K, std::uint64_t>> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < counts_.size(); ++i)
      if (counts_[i] != 0 && counts_[i] >= min_count)
        out.emplace_back(keys_[i], counts_[i]);
    return out;
  }

  /// Total stream weight observed (n in the error bound n/θ).
  [[nodiscard]] std::uint64_t stream_length() const noexcept { return n_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The guarantee threshold: any item with true count >= this is tracked.
  [[nodiscard]] std::uint64_t guarantee_threshold() const noexcept {
    return n_ / (capacity_ + 1) + 1;
  }

 private:
  void resize_slots(std::size_t slots) {
    keys_.assign(slots, K{});
    counts_.assign(slots, 0);
    mask_ = slots - 1;
  }

  /// The slot holding `key`, or the free slot where it would go.
  [[nodiscard]] std::size_t find_slot(const K& key) const {
    std::size_t i = static_cast<std::size_t>(
                        util::fmix64(static_cast<std::uint64_t>(Hash{}(key)))) &
                    mask_;
    while (counts_[i] != 0 && !(keys_[i] == key)) i = (i + 1) & mask_;
    return i;
  }

  void place(std::size_t i, const K& key, std::uint64_t c) {
    keys_[i] = key;
    counts_[i] = c;
    ++size_;
  }

  /// Key-wise add; merges may hold more than θ counters until
  /// shrink_to_capacity. The arrays double to stay at most half full.
  void add(const K& key, std::uint64_t c) {
    if (2 * (size_ + 1) > counts_.size()) rebuild(0, 2 * counts_.size());
    const std::size_t i = find_slot(key);
    if (counts_[i] != 0) {
      counts_[i] += c;
    } else {
      place(i, key, c);
    }
  }

  void decrement_all(std::uint64_t dec) { rebuild(dec, counts_.size()); }

  /// Subtract `dec` from every counter, drop those that reach zero, and
  /// re-place the survivors into `slots` fresh slots.
  void rebuild(std::uint64_t dec, std::size_t slots) {
    keys_.swap(spare_keys_);
    counts_.swap(spare_counts_);
    resize_slots(slots);
    size_ = 0;
    for (std::size_t i = 0; i < spare_counts_.size(); ++i) {
      if (spare_counts_[i] <= dec) continue;  // free, or decremented away
      place(find_slot(spare_keys_[i]), spare_keys_[i], spare_counts_[i] - dec);
    }
  }

  void shrink_to_capacity() {
    if (size_ <= capacity_) return;
    // Find the (capacity+1)-largest count and subtract it from everyone.
    std::vector<std::uint64_t> counts;
    counts.reserve(size_);
    for (const std::uint64_t c : counts_)
      if (c != 0) counts.push_back(c);
    auto nth = counts.begin() + static_cast<std::ptrdiff_t>(capacity_);
    std::nth_element(counts.begin(), nth, counts.end(),
                     std::greater<std::uint64_t>());
    decrement_all(*nth);
  }

  std::size_t capacity_;
  std::uint64_t n_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  std::vector<K> keys_;
  std::vector<std::uint64_t> counts_;
  // The previous arrays, kept for the next rebuild to reuse.
  std::vector<K> spare_keys_;
  std::vector<std::uint64_t> spare_counts_;
};

}  // namespace hipmer::kcount
