#include "kcount/kmer_analysis.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <cstddef>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "kcount/histogram.hpp"
#include "kcount/hyperloglog.hpp"
#include "kcount/misra_gries.hpp"
#include "kcount/packed_kmer_table.hpp"
#include "seq/kmer_scanner.hpp"

namespace hipmer::kcount {

using seq::KmerT;

std::optional<std::uint32_t> parse_min_count(std::string_view text) {
  if (text == "auto") return 0;
  std::uint32_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value == 0) return std::nullopt;
  return value;
}

namespace {

/// Extension byte of a counting record, in the canonical frame: bits 0-1
/// hold the left neighbour's base code and bit 2 says it passed the
/// quality filter; bits 3-4 and bit 5 do the same for the right neighbour.
constexpr std::uint8_t kLeftValid = 1U << 2;
constexpr std::uint8_t kRightValid = 1U << 5;

[[nodiscard]] constexpr std::uint8_t left_ext(std::uint8_t code) noexcept {
  return static_cast<std::uint8_t>(kLeftValid | code);
}
[[nodiscard]] constexpr std::uint8_t right_ext(std::uint8_t code) noexcept {
  return static_cast<std::uint8_t>(kRightValid | (code << 3));
}

/// One sighting of a k-mer with its extension byte.
void add_sighting(KmerTally& tally, std::uint8_t ext) noexcept {
  tally.add_count();
  if ((ext & kLeftValid) != 0) tally.add_left(ext & 3);
  if ((ext & kRightValid) != 0)
    tally.add_right(static_cast<std::uint8_t>((ext >> 3) & 3));
}

template <int W>
struct WordsHash {
  std::size_t operator()(const PackedWords<W>& words) const noexcept {
    return static_cast<std::size_t>(packed_words_hash<W>(words));
  }
};

/// Counting-pass record: the k-mer's packed words, then its extension
/// byte — 8W + 1 bytes with no padding.
template <int W>
struct CountRecord {
  std::array<std::byte, 8 * W + 1> bytes;

  [[nodiscard]] static CountRecord make(const PackedWords<W>& words,
                                        std::uint8_t ext) noexcept {
    CountRecord rec;
    std::memcpy(rec.bytes.data(), words.data(), 8 * W);
    rec.bytes[8 * W] = static_cast<std::byte>(ext);
    return rec;
  }
  [[nodiscard]] PackedWords<W> words() const noexcept {
    PackedWords<W> words;
    std::memcpy(words.data(), bytes.data(), 8 * W);
    return words;
  }
  [[nodiscard]] std::uint8_t ext() const noexcept {
    return static_cast<std::uint8_t>(bytes[8 * W]);
  }
};

/// Resumable walk over every k-mer instance of a rank's read sets, in read
/// order. All three passes walk the same stream; the exchanges take it one
/// chunk per round.
template <int MAX_K>
class InstanceCursor {
 public:
  using Scanner = seq::KmerScanner<MAX_K>;

  InstanceCursor(const std::vector<seq::ReadSetView>& sets, int k)
      : sets_(sets), k_(k), it_(std::string_view(), k) {}

  /// Visit up to `n` more instances, calling `fn(set, read, scanner)` for
  /// each; returns how many were visited.
  template <typename Fn>
  std::uint64_t visit(std::uint64_t n, Fn&& fn) {
    std::uint64_t visited = 0;
    while (visited < n) {
      if (it_.done()) {
        if (!next_read()) break;
        continue;
      }
      fn(sets_[set_], read_, it_);
      it_.next();
      ++visited;
    }
    return visited;
  }

 private:
  bool next_read() {
    for (; set_ < sets_.size(); ++set_, next_ = 0) {
      if (next_ < sets_[set_].size()) {
        read_ = next_++;
        it_ = sets_[set_].template scanner<MAX_K>(read_, k_);
        return true;
      }
    }
    return false;
  }

  const std::vector<seq::ReadSetView>& sets_;
  int k_;
  std::size_t set_ = 0;
  std::size_t next_ = 0;
  std::size_t read_ = 0;
  Scanner it_;
};

}  // namespace

template <int W>
class KmerAnalysis::Passes final : public KmerAnalysis::Engine {
 public:
  explicit Passes(KmerAnalysis& ka)
      : ka_(ka),
        cfg_(ka.config_),
        p_(static_cast<std::uint64_t>(ka.team_.nranks())),
        chunk_(std::max<std::size_t>(1, cfg_.chunk_kmers)),
        tables_(p_) {}

  void run(pgas::Rank& rank,
           const std::vector<seq::ReadSetView>& read_sets) override {
    const std::uint64_t rounds = sketch_pass(rank, read_sets);
    allocate(rank);
    std::uint64_t distinct = 0;
    if (cfg_.use_bloom) distinct += candidate_pass(rank, read_sets, rounds);
    distinct += counting_pass(rank, read_sets, rounds);
    finalize(rank, distinct);
  }

 private:
  static constexpr int kMaxK = 32 * W;
  using Kmer = seq::Kmer<kMaxK>;
  using Words = PackedWords<W>;
  using Cursor = InstanceCursor<kMaxK>;
  using Scanner = typename Cursor::Scanner;
  using Table = PackedKmerTable<W, KmerTally>;

  struct HeavyItem {
    Words words;
    std::uint64_t count;
  };
  struct HeavyTally {
    std::uint32_t index;  // into hh_words_
    KmerTally tally;
  };

  [[nodiscard]] static Words words_of(const Kmer& km) noexcept {
    Words words;
    for (int w = 0; w < W; ++w)
      words[static_cast<std::size_t>(w)] = km.word(w);
    return words;
  }
  [[nodiscard]] std::uint64_t owner_of_hash(std::uint64_t hash) const noexcept {
    return hash % p_;
  }
  [[nodiscard]] std::uint64_t hash_of(const Words& words) const noexcept {
    return Kmer::from_words(cfg_.k, words.data()).hash();
  }
  [[nodiscard]] const std::uint32_t* heavy_index(const Words& words) const {
    return hh_.size() == 0 ? nullptr : hh_.find(words);
  }

  [[nodiscard]] bool writes_shared(const pgas::Rank& rank) const {
    // Single writer on the threads fabric; on a multi-process fabric every
    // process holds its own copy of the analysis object, so each one stores
    // the (replicated) reduction results.
    return rank.is_root() || ka_.team_.multiprocess();
  }

  /// The chunked all-to-all both counting exchanges share: `rounds` rounds,
  /// each scanning `chunk_` more instances of this rank's stream into
  /// per-owner buckets (`produce(set, read, scanner, outgoing)`), then
  /// exchanging and handing what this rank owns to `apply(incoming)`. The
  /// round count comes from the sketch pass's largest per-rank instance
  /// count, so every rank's stream is drained after exactly `rounds`.
  template <typename Rec, typename Produce, typename Apply>
  void exchange(pgas::Rank& rank,
                const std::vector<seq::ReadSetView>& read_sets,
                std::uint64_t rounds, bool per_element_ops, Produce&& produce,
                Apply&& apply) {
    Cursor cursor(read_sets, cfg_.k);
    std::vector<std::vector<Rec>> outgoing(p_);
    for (std::uint64_t round = 0; round < rounds; ++round) {
      rank.stats().add_work(cursor.visit(
          chunk_, [&](const seq::ReadSetView& set, std::size_t read,
                      const Scanner& it) { produce(set, read, it, outgoing); }));
      const auto incoming = rank.alltoallv(outgoing, per_element_ops);
      for (auto& bucket : outgoing) bucket.clear();
      apply(incoming);
    }
    assert(cursor.visit(1, [](const auto&, std::size_t, const auto&) {}) == 0);
  }

  /// Returns the exchange round count.
  std::uint64_t sketch_pass(pgas::Rank& rank,
                            const std::vector<seq::ReadSetView>& read_sets) {
    HyperLogLog hll;
    std::optional<MisraGries<Words, WordsHash<W>>> mg;
    if (cfg_.use_heavy_hitters) mg.emplace(cfg_.mg_capacity);
    Cursor cursor(read_sets, cfg_.k);
    const std::uint64_t instances = cursor.visit(
        std::numeric_limits<std::uint64_t>::max(),
        [&](const seq::ReadSetView&, std::size_t, const Scanner& it) {
          const Kmer& canon = it.canonical();
          hll.add_hash(canon.hash());
          if (mg) mg->offer(words_of(canon));
        });
    rank.stats().add_work(instances);

    // Global cardinality: merge every rank's HLL registers.
    const auto all_regs = rank.allgatherv(hll.registers());
    HyperLogLog merged;
    const std::size_t reg_count = hll.registers().size();
    for (std::size_t r = 0; r < p_; ++r) {
      const auto first =
          all_regs.begin() + static_cast<std::ptrdiff_t>(r * reg_count);
      merged.merge_registers(std::vector<std::uint8_t>(
          first, first + static_cast<std::ptrdiff_t>(reg_count)));
    }
    const auto per_rank = rank.allgather(instances);
    std::uint64_t global_n = 0;
    std::uint64_t most = 0;
    for (const std::uint64_t n : per_rank) {
      global_n += n;
      most = std::max(most, n);
    }
    if (writes_shared(rank)) {
      ka_.cardinality_estimate_ = merged.estimate();
      ka_.total_instances_ = global_n;
    }
    const std::uint64_t rounds = (most + chunk_ - 1) / chunk_;

    if (!mg) {
      rank.barrier();
      return rounds;
    }

    // Heavy-hitter identification: route each rank's MG partials to the
    // k-mer's owner, sum the lower bounds there, keep those over threshold.
    const std::uint64_t threshold =
        cfg_.hh_min_count > 0
            ? cfg_.hh_min_count
            : global_n / static_cast<std::uint64_t>(cfg_.mg_capacity) + 1;
    std::vector<std::vector<HeavyItem>> outgoing(p_);
    const auto items = mg->items();
    mg.reset();
    for (const auto& [words, count] : items)
      outgoing[owner_of_hash(hash_of(words))].push_back(
          HeavyItem{words, count});
    rank.stats().add_work(items.size());
    auto incoming = rank.alltoallv(outgoing);
    rank.stats().add_work(incoming.size());
    std::sort(incoming.begin(), incoming.end(),
              [](const HeavyItem& a, const HeavyItem& b) {
                return a.words < b.words;
              });
    std::vector<HeavyItem> my_heavy;
    for (std::size_t i = 0; i < incoming.size();) {
      HeavyItem sum{incoming[i].words, 0};
      for (; i < incoming.size() && incoming[i].words == sum.words; ++i)
        sum.count += incoming[i].count;
      if (sum.count >= threshold) my_heavy.push_back(sum);
    }
    const auto global_heavy = rank.allgatherv(my_heavy);

    // Every rank reads the replicated set after the barrier; one writer
    // per address space builds it from the same allgatherv result.
    if (writes_shared(rank)) {
      hh_ = PackedKmerTable<W, std::uint32_t>(global_heavy.size());
      hh_words_.clear();
      ka_.heavy_hitters_.clear();
      for (const auto& item : global_heavy) {
        hh_.find_or_insert(item.words) =
            static_cast<std::uint32_t>(hh_words_.size());
        hh_words_.push_back(item.words);
        ka_.heavy_hitters_.emplace_back(
            KmerT::from_words(cfg_.k, item.words.data()), item.count);
      }
      std::sort(ka_.heavy_hitters_.begin(), ka_.heavy_hitters_.end(),
                [](const auto& a, const auto& b) {
                  return a.second != b.second ? b.second < a.second
                                              : a.first < b.first;
                });
    }
    rank.barrier();
    return rounds;
  }

  /// Each rank sizes its own Bloom filter and owner table from the
  /// replicated cardinality estimate.
  void allocate(pgas::Rank& rank) {
    const auto me = static_cast<std::size_t>(rank.id());
    const auto est =
        static_cast<std::size_t>(std::max(1024.0, ka_.cardinality_estimate_));
    if (cfg_.use_bloom)
      ka_.blooms_[me] = std::make_unique<BloomFilter>(est / p_ + 1024);
    tables_[me] = std::make_unique<Table>(static_cast<std::size_t>(
        static_cast<double>(est) * cfg_.candidate_fraction /
        static_cast<double>(p_)));
  }

  /// Bloom admission: a k-mer enters its owner's table on its second
  /// sighting. Returns the first sightings (distinct k-mers).
  std::uint64_t candidate_pass(pgas::Rank& rank,
                               const std::vector<seq::ReadSetView>& read_sets,
                               std::uint64_t rounds) {
    const auto me = static_cast<std::size_t>(rank.id());
    BloomFilter& bloom = *ka_.blooms_[me];
    Table& table = *tables_[me];
    std::uint64_t distinct = 0;
    exchange<Words>(
        rank, read_sets, rounds, /*per_element_ops=*/false,
        [&](const seq::ReadSetView&, std::size_t, const Scanner& it,
            std::vector<std::vector<Words>>& outgoing) {
          const Kmer& canon = it.canonical();
          const Words words = words_of(canon);
          if (heavy_index(words) == nullptr)
            outgoing[owner_of_hash(canon.hash())].push_back(words);
        },
        [&](const std::vector<Words>& incoming) {
          std::uint64_t admitted = 0;
          for (const Words& words : incoming) {
            if (bloom.test_and_set(hash_of(words))) {
              table.find_or_insert(words);
              ++admitted;
            } else {
              ++distinct;
            }
          }
          rank.stats().add_work(incoming.size());
          rank.stats().add_local_access(admitted);
        });
    return distinct;
  }

  /// Every instance's count and quality-filtered extensions reach the
  /// owner's tally; heavy hitters go through a local tally array and one
  /// final reduction. Returns the heavy hitters this rank owns (distinct
  /// k-mers the candidate pass never saw).
  std::uint64_t counting_pass(pgas::Rank& rank,
                              const std::vector<seq::ReadSetView>& read_sets,
                              std::uint64_t rounds) {
    Table& table = *tables_[static_cast<std::size_t>(rank.id())];
    std::vector<KmerTally> heavy(hh_words_.size());
    std::string qual_scratch;
    std::string_view quals;
    std::size_t len = 0;
    const seq::ReadSetView* quals_set = nullptr;
    std::size_t quals_read = 0;

    exchange<CountRecord<W>>(
        rank, read_sets, rounds, /*per_element_ops=*/true,
        [&](const seq::ReadSetView& set, std::size_t read, const Scanner& it,
            std::vector<std::vector<CountRecord<W>>>& outgoing) {
          if (&set != quals_set || read != quals_read) {
            quals = set.quals(read, qual_scratch);
            len = set.length(read);
            quals_set = &set;
            quals_read = read;
          }
          // Neighbour bases, quality-filtered ("k-mers ... with high
          // quality extensions"), stored in the canonical frame.
          const std::size_t i = it.position();
          const std::size_t ri = i + static_cast<std::size_t>(cfg_.k);
          const auto code_at = [&](std::size_t pos) {
            return set.code(read, static_cast<std::uint32_t>(pos));
          };
          const std::uint8_t lcode = i > 0 ? code_at(i - 1) : seq::kBaseInvalid;
          const std::uint8_t rcode =
              ri < len ? code_at(ri) : seq::kBaseInvalid;
          const bool has_left = lcode != seq::kBaseInvalid &&
                                seq::phred(quals[i - 1]) >= cfg_.qual_threshold;
          const bool has_right = rcode != seq::kBaseInvalid &&
                                 seq::phred(quals[ri]) >= cfg_.qual_threshold;
          std::uint8_t ext = 0;
          if (!it.is_flipped()) {
            if (has_left) ext |= left_ext(lcode);
            if (has_right) ext |= right_ext(rcode);
          } else {
            if (has_right) ext |= left_ext(seq::complement_code(rcode));
            if (has_left) ext |= right_ext(seq::complement_code(lcode));
          }

          const Kmer& canon = it.canonical();
          const Words words = words_of(canon);
          if (const std::uint32_t* idx = heavy_index(words)) {
            add_sighting(heavy[*idx], ext);  // local accumulation
            return;
          }
          outgoing[owner_of_hash(canon.hash())].push_back(
              CountRecord<W>::make(words, ext));
        },
        [&](const std::vector<CountRecord<W>>& incoming) {
          for (const auto& rec : incoming) {
            KmerTally* tally = cfg_.use_bloom
                                   ? table.find(rec.words())
                                   : &table.find_or_insert(rec.words());
            if (tally != nullptr) add_sighting(*tally, rec.ext());
          }
        });

    if (!cfg_.use_heavy_hitters) return 0;
    // Final global reduction of heavy hitters: one exchange, then the owner
    // merges (bypassing the Bloom filter — a heavy hitter is never a
    // singleton, so admission is unconditional; this matches the paper's
    // note that only k-mers with f'(x) > 1 are treated specially).
    std::vector<std::vector<HeavyTally>> outgoing(p_);
    std::uint64_t sent = 0;
    for (std::size_t i = 0; i < heavy.size(); ++i) {
      if (heavy[i].count == 0) continue;
      outgoing[owner_of_hash(hash_of(hh_words_[i]))].push_back(
          HeavyTally{static_cast<std::uint32_t>(i), heavy[i]});
      ++sent;
    }
    rank.stats().add_work(sent);
    const auto incoming = rank.alltoallv(outgoing);
    std::uint64_t owned = 0;
    for (const auto& item : incoming) {
      bool inserted = false;
      table.find_or_insert(hh_words_[item.index], &inserted)
          .merge(item.tally);
      owned += inserted ? 1 : 0;
    }
    rank.stats().add_work(incoming.size());
    rank.stats().add_local_access(incoming.size());
    return owned;
  }

  void finalize(pgas::Rank& rank, std::uint64_t distinct) {
    const auto me = static_cast<std::size_t>(rank.id());
    const Table& table = *tables_[me];
    // Pre-purge spectrum over the floor of 2. Every such count is exact:
    // the Bloom filter admits a k-mer on its second sighting and the
    // counting pass then sees every instance, and heavy hitters are reduced
    // exactly. So the histogram, and the cutoff read from it, do not depend
    // on the team size. Count-1 entries (Bloom false positives) never enter
    // it. Each rank's row is its 256 buckets, then its table size.
    std::vector<std::uint64_t> row(kHistWidth + 1, 0);
    table.for_each([&](const Words&, const KmerTally& tally) {
      if (tally.count >= 2)
        ++row[std::min<std::size_t>(tally.count, kHistWidth - 1)];
    });
    row[kHistWidth] = table.size();
    const auto rows = rank.allgatherv(row);
    std::vector<std::uint64_t> hist(kHistWidth, 0);
    std::uint64_t entries = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t col = i % (kHistWidth + 1);
      if (col == kHistWidth) {
        entries += rows[i];
      } else {
        hist[col] += rows[i];
      }
    }
    // Every rank resolves the cutoff from the same replicated histogram.
    const std::uint32_t cutoff =
        cfg_.min_count == 0 ? choose_min_count(hist)
        : cfg_.use_bloom    ? std::max(cfg_.min_count, 2U)
                            : cfg_.min_count;
    if (writes_shared(rank)) {
      ka_.histogram_ = hist;
      ka_.peak_table_entries_ = entries;
      ka_.min_count_ = cutoff;
    }

    // Discard below-cutoff (erroneous) k-mers; collapse tallies into UFX.
    std::size_t kept = 0;
    table.for_each([&](const Words&, const KmerTally& tally) {
      kept += tally.count >= cutoff ? 1 : 0;
    });
    auto& out = ka_.ufx_[me];
    out.clear();
    out.reserve(kept);
    table.for_each([&](const Words& words, const KmerTally& tally) {
      if (tally.count >= cutoff)
        out.emplace_back(KmerT::from_words(cfg_.k, words.data()),
                         summarize(tally, cfg_.min_ext_count));
    });
    rank.stats().add_work(out.size());
    tables_[me].reset();

    struct Tail {
      std::uint64_t distinct;
      std::uint64_t kept;
    };
    std::uint64_t global_distinct = 0;
    std::uint64_t global_kept = 0;
    for (const Tail& t : rank.allgather(Tail{distinct, out.size()})) {
      global_distinct += t.distinct;
      global_kept += t.kept;
    }
    if (writes_shared(rank)) {
      ka_.distinct_kmers_ = global_distinct;
      ka_.singleton_fraction_ =
          global_distinct == 0
              ? 0.0
              : 1.0 - static_cast<double>(global_kept) /
                          static_cast<double>(global_distinct);
    }
  }

  static constexpr std::size_t kHistWidth = 256;

  KmerAnalysis& ka_;
  const KmerAnalysisConfig& cfg_;
  std::uint64_t p_;
  std::size_t chunk_;
  // tables_[r] — rank r's owner table, touched by rank r only.
  std::vector<std::unique_ptr<Table>> tables_;
  // Replicated heavy-hitter set: words -> index into hh_words_ (read-only
  // after the sketch pass).
  PackedKmerTable<W, std::uint32_t> hh_;
  std::vector<Words> hh_words_;
};

KmerAnalysis::KmerAnalysis(pgas::ThreadTeam& team, KmerAnalysisConfig config)
    : team_(team), config_(config) {
  if (config_.k < 1 || config_.k > KmerT::kMaxK)
    throw std::invalid_argument("KmerAnalysis: k must be in [1, 64]");
  const auto p = static_cast<std::size_t>(team.nranks());
  ufx_.resize(p);
  blooms_.resize(p);
  if (config_.k <= 32) {
    engine_ = std::make_unique<Passes<1>>(*this);
  } else {
    engine_ = std::make_unique<Passes<2>>(*this);
  }
}

KmerAnalysis::~KmerAnalysis() = default;

void KmerAnalysis::run(pgas::Rank& rank, const std::vector<seq::Read>& reads) {
  run(rank, std::vector<seq::ReadSetView>{seq::ReadSetView(reads)});
}

void KmerAnalysis::run(
    pgas::Rank& rank,
    const std::vector<const std::vector<seq::Read>*>& read_sets) {
  std::vector<seq::ReadSetView> views;
  views.reserve(read_sets.size());
  for (const auto* reads : read_sets) views.emplace_back(*reads);
  run(rank, views);
}

void KmerAnalysis::run(pgas::Rank& rank,
                       const std::vector<seq::ReadSetView>& read_sets) {
  engine_->run(rank, read_sets);
}

std::size_t KmerAnalysis::bloom_bytes() const {
  std::size_t total = 0;
  for (const auto& b : blooms_)
    if (b) total += b->size_bytes();
  return total;
}

}  // namespace hipmer::kcount
