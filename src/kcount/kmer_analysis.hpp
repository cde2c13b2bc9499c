#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "kcount/bloom_filter.hpp"
#include "kcount/kmer_tally.hpp"
#include "pgas/thread_team.hpp"
#include "seq/read.hpp"
#include "seq/read_set_view.hpp"
#include "seq/types.hpp"

/// Stage 1 of the pipeline: parallel k-mer analysis (§2 step 1, §3.1), as
/// owner-computes counting on packed words.
///
/// Every canonical k-mer has one owner rank, `hash % P`, and only the owner
/// ever touches that k-mer's state: its Bloom filter bits, its table entry,
/// its final tally. Ranks scan their own reads and ship each k-mer instance
/// to its owner as the k-mer's packed 2-bit words and nothing else — k is
/// global, so the owner rebuilds the k-mer (and its hash) from the words.
/// k <= 32 uses one 64-bit word per k-mer, 33 <= k <= 64 two; the passes
/// are one template instantiated per word count W, chosen once from k.
///
/// Four collective passes, all driven from `run()`:
///
///  0. **Sketch pass** — one streaming pass over the reads builds, per
///     rank, a HyperLogLog (cardinality, used to size the Bloom filters and
///     owner tables: "an initial pass ... to estimate the cardinality") and
///     a Misra–Gries summary (heavy-hitter candidates). MG partial counts
///     are routed to each k-mer's owner and summed (mergeable summaries /
///     Cafaro–Tempesta); k-mers whose summed lower-bound count crosses the
///     threshold become the replicated heavy-hitter set, a flat word ->
///     index table. The per-rank instance counts gathered here fix the
///     round count of both exchanges below, so no round needs its own
///     "anyone left?" reduction.
///  1. **Candidate pass** — every non-heavy k-mer instance goes to its
///     owner as a bare 8W-byte record in a chunked all-to-all (aggregated
///     messages, `chunk_kmers` instances per rank per round). The owner
///     runs the Bloom filter test-and-set and admits a k-mer into its table
///     on the second sighting, keeping singletons (overwhelmingly
///     sequencing errors) out of the table.
///  2. **Counting pass** — the same exchange again, each record now 8W+1
///     bytes: the words plus one byte holding the quality-filtered left and
///     right neighbour codes in the canonical frame. The owner rebuilds the
///     instance's `KmerTally` from that byte and merges it into the entry,
///     if the candidate pass admitted one (find-or-insert without the Bloom
///     filter). Heavy hitters never travel per instance: each rank
///     accumulates them into a dense tally array indexed by the heavy set
///     ("the high frequency k-mers are accumulated locally, followed by a
///     final global reduction"), and one exchange at the end hands the
///     partial tallies to the owners — the optimization Figure 6 measures.
///  3. **Finalize** — the global count histogram of every k-mer seen at
///     least twice is built, the cutoff is read from its valley when
///     `min_count` is 0 (no separate probe run), and each owner collapses
///     its at-or-above-cutoff tallies into UFX records (depth + two-letter
///     code).
///
/// Owner tables are flat open-addressing arrays (`PackedKmerTable`) keyed
/// by the words, 8W + 20 bytes of key and tally per slot. They need no
/// locks because no rank other than the owner reads or writes them; on a
/// multi-process fabric each process allocates only its own ranks' tables
/// and Bloom filters.
namespace hipmer::kcount {

struct KmerAnalysisConfig {
  int k = 31;
  /// Discard k-mers with count below this (erroneous); 0 derives it from
  /// the count-histogram valley (`choose_min_count`) in the same run.
  std::uint32_t min_count = 2;
  /// Minimum Phred quality for a neighbor base to count as an extension.
  int qual_threshold = 20;
  /// Minimum support for a high-quality extension.
  std::uint32_t min_ext_count = 2;

  /// Heavy-hitter (Misra–Gries) machinery. θ is the slot count; the paper
  /// uses 32,000 and reports <10% sensitivity across 1K–64K.
  bool use_heavy_hitters = true;
  std::size_t mg_capacity = 32768;
  /// Count threshold for treating a k-mer as a heavy hitter; 0 derives the
  /// MG guarantee threshold n/θ.
  std::uint64_t hh_min_count = 0;

  bool use_bloom = true;
  /// Expected fraction of distinct k-mers that are non-singletons (sizes
  /// the owner tables relative to the cardinality estimate).
  double candidate_fraction = 0.4;

  /// K-mer instances each rank scans per all-to-all round of the candidate
  /// and counting passes.
  std::size_t chunk_kmers = 32768;
};

/// Text form of `KmerAnalysisConfig::min_count`: "auto" is 0 (the
/// histogram valley), otherwise a decimal integer >= 1. Anything else,
/// including "0", is nullopt.
[[nodiscard]] std::optional<std::uint32_t> parse_min_count(
    std::string_view text);

class KmerAnalysis {
 public:
  /// k must be in [1, 64].
  KmerAnalysis(pgas::ThreadTeam& team, KmerAnalysisConfig config);
  ~KmerAnalysis();

  /// Collective: full analysis of this rank's share of the reads. Must be
  /// called by every rank inside one team.run(). The ReadSetView overload
  /// is the core path — it scans the packed arena or a string vector alike
  /// (packed reads feed the scanner straight from their 2-bit words).
  void run(pgas::Rank& rank, const std::vector<seq::ReadSetView>& read_sets);

  void run(pgas::Rank& rank, const std::vector<seq::Read>& reads);

  /// Multi-library variant: analyse the union of several read sets without
  /// copying them together.
  void run(pgas::Rank& rank,
           const std::vector<const std::vector<seq::Read>*>& read_sets);

  // ---- results (valid after run) ----

  /// This rank's UFX records (every rank owns a disjoint shard; the union
  /// is the genome's reliable k-mer spectrum).
  [[nodiscard]] const std::vector<std::pair<seq::KmerT, KmerSummary>>& ufx(
      int rank) const {
    return ufx_[static_cast<std::size_t>(rank)];
  }
  /// Moves every rank's UFX shard out; `ufx()` is empty afterwards.
  [[nodiscard]] std::vector<std::vector<std::pair<seq::KmerT, KmerSummary>>>
  take_ufx() {
    auto shards = std::move(ufx_);
    ufx_.assign(shards.size(), {});
    return shards;
  }

  [[nodiscard]] double estimated_cardinality() const noexcept {
    return cardinality_estimate_;
  }
  /// Exact-ish number of distinct k-mers observed (first sightings at the
  /// Bloom filter, plus heavy hitters).
  [[nodiscard]] std::uint64_t distinct_kmers() const noexcept {
    return distinct_kmers_;
  }
  /// Fraction of distinct k-mers occurring exactly once — 95% for human,
  /// 36% for the wetlands metagenome per the paper.
  [[nodiscard]] double singleton_fraction() const noexcept {
    return singleton_fraction_;
  }
  /// Heavy hitters with their summed Misra–Gries lower-bound counts,
  /// largest first (ties in k-mer order).
  [[nodiscard]] const std::vector<std::pair<seq::KmerT, std::uint64_t>>&
  heavy_hitters() const noexcept {
    return heavy_hitters_;
  }
  /// Global k-mer count histogram (index = count, capped at 255) over every
  /// k-mer counted at least twice, taken before the `min_count` purge. It
  /// does not depend on the team size.
  [[nodiscard]] const std::vector<std::uint64_t>& histogram() const noexcept {
    return histogram_;
  }
  /// The count cutoff the purge applied: the configured `min_count` (at
  /// least 2 with the Bloom filter on), or the histogram valley when the
  /// configured value is 0.
  [[nodiscard]] std::uint32_t min_count() const noexcept { return min_count_; }
  /// Total k-mer instances processed (n in the MG bound).
  [[nodiscard]] std::uint64_t total_kmer_instances() const noexcept {
    return total_instances_;
  }
  /// Entries resident in the owner tables *before* the below-threshold
  /// purge — the working-set size the Bloom filter shrinks (§3.1: "memory
  /// requirement reductions of up to 85%").
  [[nodiscard]] std::size_t peak_table_entries() const noexcept {
    return peak_table_entries_;
  }
  [[nodiscard]] std::size_t bloom_bytes() const;
  [[nodiscard]] const KmerAnalysisConfig& config() const noexcept {
    return config_;
  }

 private:
  /// The four passes for one word count W; see the file comment.
  struct Engine {
    virtual ~Engine() = default;
    virtual void run(pgas::Rank& rank,
                     const std::vector<seq::ReadSetView>& read_sets) = 0;
  };
  template <int W>
  class Passes;

  pgas::ThreadTeam& team_;
  KmerAnalysisConfig config_;
  std::unique_ptr<Engine> engine_;

  // blooms_[r] — rank r's filter (allocated by r itself; on a multi-process
  // fabric only this process's rank has one).
  std::vector<std::unique_ptr<BloomFilter>> blooms_;

  std::vector<std::pair<seq::KmerT, std::uint64_t>> heavy_hitters_;
  // Per-rank UFX shards (indexed by rank id).
  std::vector<std::vector<std::pair<seq::KmerT, KmerSummary>>> ufx_;

  double cardinality_estimate_ = 0.0;
  std::size_t peak_table_entries_ = 0;
  std::uint64_t distinct_kmers_ = 0;
  std::uint64_t total_instances_ = 0;
  double singleton_fraction_ = 0.0;
  std::vector<std::uint64_t> histogram_;
  std::uint32_t min_count_ = 0;
};

}  // namespace hipmer::kcount
