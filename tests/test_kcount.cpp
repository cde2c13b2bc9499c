#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <unordered_map>

#include "ckpt/artifacts.hpp"
#include "kcount/bloom_filter.hpp"
#include "kcount/histogram.hpp"
#include "kcount/hyperloglog.hpp"
#include "kcount/kmer_analysis.hpp"
#include "kcount/misra_gries.hpp"
#include "sim/datasets.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "util/hash.hpp"

namespace hipmer::kcount {
namespace {

using seq::KmerT;

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bloom(10000);
  std::mt19937_64 rng(1);
  std::vector<std::uint64_t> keys(5000);
  for (auto& k : keys) k = rng();
  for (auto k : keys) bloom.test_and_set(util::mix64(k));
  for (auto k : keys) EXPECT_TRUE(bloom.test(util::mix64(k)));
}

TEST(BloomFilter, FalsePositiveRateBounded) {
  BloomFilter bloom(20000, 8, 4);
  std::mt19937_64 rng(2);
  for (int i = 0; i < 20000; ++i) bloom.test_and_set(rng());
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) fp += bloom.test(rng());
  // Theoretical ~2.5% at 8 bits/key with 4 probes; allow slack.
  EXPECT_LT(static_cast<double>(fp) / probes, 0.05);
}

TEST(BloomFilter, TestAndSetReportsPriorState) {
  BloomFilter bloom(1000);
  EXPECT_FALSE(bloom.test_and_set(12345));
  EXPECT_TRUE(bloom.test_and_set(12345));
  EXPECT_TRUE(bloom.test(12345));
}

TEST(HyperLogLog, EstimatesWithinAdvertisedError) {
  for (const std::uint64_t truth : {100ull, 10'000ull, 1'000'000ull}) {
    HyperLogLog hll(12);
    std::mt19937_64 rng(truth);
    for (std::uint64_t i = 0; i < truth; ++i) hll.add_hash(rng());
    const double est = hll.estimate();
    EXPECT_NEAR(est, static_cast<double>(truth),
                static_cast<double>(truth) * 0.08)
        << "truth=" << truth;
  }
}

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  std::mt19937_64 rng(5);
  std::vector<std::uint64_t> keys(1000);
  for (auto& k : keys) k = rng();
  for (int round = 0; round < 50; ++round)
    for (auto k : keys) hll.add_hash(k);
  EXPECT_NEAR(hll.estimate(), 1000.0, 100.0);
}

TEST(HyperLogLog, MergeEqualsUnion) {
  HyperLogLog a(12);
  HyperLogLog b(12);
  HyperLogLog u(12);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 5000; ++i) {
    const auto h = rng();
    a.add_hash(h);
    u.add_hash(h);
  }
  for (int i = 0; i < 5000; ++i) {
    const auto h = rng();
    b.add_hash(h);
    u.add_hash(h);
  }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.estimate(), u.estimate());
}

TEST(MisraGries, GuaranteesLowerBoundAndCoverage) {
  // Stream: heavy items i=0..9 appear 1000 times each; 20000 singletons.
  const std::size_t theta = 64;
  MisraGries<std::uint64_t> mg(theta);
  std::mt19937_64 rng(9);
  std::vector<std::uint64_t> stream;
  for (std::uint64_t h = 0; h < 10; ++h)
    for (int i = 0; i < 1000; ++i) stream.push_back(h);
  for (int i = 0; i < 20000; ++i) stream.push_back(1000 + rng() % 1000000);
  std::shuffle(stream.begin(), stream.end(), rng);

  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  for (auto x : stream) ++truth[x];
  for (auto x : stream) mg.offer(x);

  EXPECT_EQ(mg.stream_length(), stream.size());
  const std::uint64_t n_over_theta = stream.size() / theta;
  for (std::uint64_t h = 0; h < 10; ++h) {
    const auto reported = mg.count(h);
    EXPECT_LE(reported, truth[h]) << "f'(x) <= f(x) violated for " << h;
    EXPECT_GE(reported + n_over_theta + 1, truth[h])
        << "f(x) - n/theta <= f'(x) violated for " << h;
    EXPECT_GT(reported, 0u) << "heavy item lost: " << h;
  }
  EXPECT_LE(mg.size(), theta);
}

TEST(MisraGries, MergePreservesHeavyItems) {
  const std::size_t theta = 32;
  MisraGries<std::uint64_t> a(theta);
  MisraGries<std::uint64_t> b(theta);
  std::mt19937_64 rng(11);
  // Item 7 is heavy in both halves.
  for (int i = 0; i < 2000; ++i) {
    a.offer(7);
    b.offer(7);
    a.offer(rng() % 100000 + 10);
    b.offer(rng() % 100000 + 10);
  }
  const auto truth_each = 2000u;
  a.merge(b);
  EXPECT_LE(a.count(7), 2 * truth_each);
  EXPECT_GE(a.count(7) + a.stream_length() / theta + 1, 2 * truth_each);
  EXPECT_LE(a.size(), theta);
}

TEST(MisraGries, GuaranteeThresholdTracksStream) {
  MisraGries<int> mg(10);
  for (int i = 0; i < 1000; ++i) mg.offer(i % 50);
  EXPECT_EQ(mg.guarantee_threshold(), 1000u / 11 + 1);
}

/// The textbook summary on a node-based map: the algorithm MisraGries must
/// reproduce item for item, whatever its storage.
class ReferenceMisraGries {
 public:
  explicit ReferenceMisraGries(std::size_t capacity) : capacity_(capacity) {}

  void offer(std::uint64_t key, std::uint64_t w) {
    n_ += w;
    while (w > 0) {
      if (auto it = counters_.find(key); it != counters_.end()) {
        it->second += w;
        return;
      }
      if (counters_.size() < capacity_) {
        counters_.emplace(key, w);
        return;
      }
      std::uint64_t dec = w;
      for (const auto& [k, c] : counters_) dec = std::min(dec, c);
      decrement_all(dec);
      w -= dec;
    }
  }

  void merge(const ReferenceMisraGries& other) {
    n_ += other.n_;
    for (const auto& [k, c] : other.counters_) counters_[k] += c;
    if (counters_.size() <= capacity_) return;
    std::vector<std::uint64_t> counts;
    for (const auto& [k, c] : counters_) counts.push_back(c);
    std::sort(counts.begin(), counts.end(), std::greater<>());
    decrement_all(counts[capacity_]);
  }

  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] std::uint64_t n() const { return n_; }

 private:
  void decrement_all(std::uint64_t dec) {
    for (auto it = counters_.begin(); it != counters_.end();) {
      if (it->second <= dec) {
        it = counters_.erase(it);
      } else {
        it->second -= dec;
        ++it;
      }
    }
  }

  std::size_t capacity_;
  std::uint64_t n_ = 0;
  std::map<std::uint64_t, std::uint64_t> counters_;
};

std::map<std::uint64_t, std::uint64_t> as_map(
    const MisraGries<std::uint64_t>& mg) {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& [k, c] : mg.items()) EXPECT_TRUE(out.emplace(k, c).second);
  return out;
}

TEST(MisraGries, FlatStorageMatchesMapReference) {
  // Skewed stream: key i has weight ~ 1/i (Zipf-like) over 5000 keys, so
  // the 40 slots fill at once and the decrement-all step runs constantly.
  const std::size_t theta = 40;
  std::mt19937_64 rng(13);
  std::vector<double> zipf_weights;
  for (int i = 1; i <= 5000; ++i) zipf_weights.push_back(1.0 / i);
  std::discrete_distribution<std::uint64_t> zipf(zipf_weights.begin(),
                                                 zipf_weights.end());
  MisraGries<std::uint64_t> unit(theta);
  MisraGries<std::uint64_t> weighted(theta);
  ReferenceMisraGries unit_ref(theta);
  ReferenceMisraGries weighted_ref(theta);
  std::uniform_int_distribution<std::uint64_t> weight(1, 9);
  for (int i = 0; i < 60000; ++i) {
    const std::uint64_t key = zipf(rng) * 0x9e3779b97f4a7c15ULL;
    unit.offer(key);
    unit_ref.offer(key, 1);
    const std::uint64_t w = weight(rng);
    weighted.offer(key, w);
    weighted_ref.offer(key, w);
    if (i % 9973 == 0) {
      ASSERT_EQ(as_map(unit), unit_ref.counters()) << "after " << i;
      ASSERT_EQ(as_map(weighted), weighted_ref.counters()) << "after " << i;
    }
  }
  EXPECT_EQ(as_map(unit), unit_ref.counters());
  EXPECT_EQ(as_map(weighted), weighted_ref.counters());
  EXPECT_EQ(unit.stream_length(), unit_ref.n());
  EXPECT_EQ(weighted.stream_length(), weighted_ref.n());
  EXPECT_EQ(unit.size(), unit_ref.counters().size());
  for (const auto& [k, c] : unit_ref.counters()) EXPECT_EQ(unit.count(k), c);
  EXPECT_EQ(unit.count(0xdeadbeefULL), 0u);

  // Merging two full summaries overfills the arrays before the shrink.
  unit.merge(weighted);
  unit_ref.merge(weighted_ref);
  EXPECT_EQ(as_map(unit), unit_ref.counters());
  EXPECT_EQ(unit.stream_length(), unit_ref.n());
  EXPECT_LE(unit.size(), theta);
}

// ---- end-to-end k-mer analysis ----

struct AnalysisResult {
  std::map<std::string, KmerSummary> ufx;
  double cardinality = 0;
  std::uint64_t distinct = 0;
  double singleton_fraction = 0;
  std::size_t heavy_count = 0;
};

AnalysisResult run_analysis(const std::vector<seq::Read>& all_reads,
                            const KmerAnalysisConfig& cfg, int nranks) {
  pgas::ThreadTeam team(pgas::Topology{nranks, 2});
  KmerAnalysis ka(team, cfg);
  team.run([&](pgas::Rank& rank) {
    // Round-robin read distribution.
    std::vector<seq::Read> mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id());
         i < all_reads.size(); i += static_cast<std::size_t>(rank.nranks()))
      mine.push_back(all_reads[i]);
    ka.run(rank, mine);
  });
  AnalysisResult result;
  for (int r = 0; r < nranks; ++r)
    for (const auto& [km, summary] : ka.ufx(r))
      result.ufx[km.to_string()] = summary;
  result.cardinality = ka.estimated_cardinality();
  result.distinct = ka.distinct_kmers();
  result.singleton_fraction = ka.singleton_fraction();
  result.heavy_count = ka.heavy_hitters().size();
  return result;
}

/// Brute-force reference: canonical k-mer counts + HQ extensions.
std::map<std::string, KmerTally> reference_tallies(
    const std::vector<seq::Read>& reads, int k, int qual_threshold) {
  std::map<std::string, KmerTally> ref;
  const auto valid = [](char c) {
    return seq::base_to_code(c) != seq::kBaseInvalid;
  };
  for (const auto& read : reads) {
    for (std::size_t i = 0; i + static_cast<std::size_t>(k) <= read.seq.size(); ++i) {
      const auto sub = read.seq.substr(i, static_cast<std::size_t>(k));
      if (!std::all_of(sub.begin(), sub.end(), valid)) continue;
      auto km = KmerT::from_string(sub);
      const auto canon = km.canonical();
      const bool flipped = canon != km;
      auto& tally = ref[canon.to_string()];
      tally.add_count(1);
      const std::size_t ri = i + static_cast<std::size_t>(k);
      if (i > 0 && valid(read.seq[i - 1]) &&
          seq::phred(read.quals[i - 1]) >= qual_threshold) {
        const auto code = seq::base_to_code(read.seq[i - 1]);
        if (!flipped) tally.add_left(code);
        else tally.add_right(seq::complement_code(code));
      }
      if (ri < read.seq.size() && valid(read.seq[ri]) &&
          seq::phred(read.quals[ri]) >= qual_threshold) {
        const auto code = seq::base_to_code(read.seq[ri]);
        if (!flipped) tally.add_right(code);
        else tally.add_left(seq::complement_code(code));
      }
    }
  }
  return ref;
}

class KmerAnalysisParam : public ::testing::TestWithParam<int> {};

TEST_P(KmerAnalysisParam, MatchesBruteForceOnCleanReads) {
  const int nranks = GetParam();
  sim::GenomeConfig gc;
  gc.length = 20000;
  gc.seed = 17;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 80;
  lc.coverage = 12.0;
  lc.error_rate = 0.0;
  lc.seed = 18;
  const auto reads = sim::simulate_library(genome, lc);

  KmerAnalysisConfig cfg;
  cfg.k = 21;
  cfg.min_count = 2;
  const auto result = run_analysis(reads, cfg, nranks);
  const auto ref = reference_tallies(reads, cfg.k, cfg.qual_threshold);

  // Every reference k-mer with count >= 2 must appear with the exact count
  // and the same resolved extensions.
  std::size_t checked = 0;
  for (const auto& [km, tally] : ref) {
    if (tally.count < 2) {
      EXPECT_EQ(result.ufx.count(km), 0u) << km;
      continue;
    }
    auto it = result.ufx.find(km);
    ASSERT_NE(it, result.ufx.end()) << km;
    EXPECT_EQ(it->second.depth, tally.count) << km;
    const auto expect = summarize(tally, cfg.min_ext_count);
    EXPECT_EQ(it->second.left_ext, expect.left_ext) << km;
    EXPECT_EQ(it->second.right_ext, expect.right_ext) << km;
    ++checked;
  }
  EXPECT_GT(checked, 15000u);
  // And nothing extra.
  for (const auto& [km, summary] : result.ufx) {
    auto it = ref.find(km);
    ASSERT_NE(it, ref.end()) << km;
    EXPECT_GE(it->second.count, 2u) << km;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, KmerAnalysisParam, ::testing::Values(1, 2, 4, 8));

/// Reads that exercise every edge of the packed-word path: `N`s inside
/// reads (windows restart, neighbours drop), low-quality neighbour bases,
/// both strands, and poly-A / poly-T runs. The canonical all-A k-mer packs
/// to all-zero words, so a table that marked free slots with zero would
/// lose it.
std::vector<seq::Read> dirty_reads() {
  std::mt19937_64 rng(53);
  std::string genome = sim::random_dna(6000, rng);
  genome.replace(1500, 110, std::string(110, 'A'));
  genome.replace(4200, 90, std::string(90, 'T'));
  std::uniform_int_distribution<std::size_t> start(0, genome.size() - 90);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<seq::Read> reads;
  const auto add = [&](std::string dna, double n_rate) {
    std::string quals(dna.size(), 'I');
    for (std::size_t i = 0; i < dna.size(); ++i) {
      if (unit(rng) < n_rate) dna[i] = 'N';
      if (unit(rng) < 0.12) quals[i] = '+';  // Phred 10: below the filter
    }
    reads.push_back(seq::Read{"r" + std::to_string(reads.size()),
                              std::move(dna), std::move(quals)});
  };
  for (int i = 0; i < 900; ++i) {
    std::string dna = genome.substr(start(rng), 90);
    add(unit(rng) < 0.5 ? dna : seq::revcomp(dna), 0.01);
  }
  for (int i = 0; i < 20; ++i) {
    add(std::string(80, 'A'), 0.0);
    add(std::string(80, 'T'), 0.0);
  }
  return reads;
}

/// Parameter: k, across one and two packed words.
class KmerAnalysisWords : public ::testing::TestWithParam<int> {};

TEST_P(KmerAnalysisWords, MatchesBruteForceOnDirtyReads) {
  const int k = GetParam();
  const auto reads = dirty_reads();
  const auto ref = reference_tallies(reads, k, KmerAnalysisConfig{}.qual_threshold);
  const std::string all_a(static_cast<std::size_t>(k), 'A');
  ASSERT_GE(ref.at(all_a).count, 40u * static_cast<std::uint32_t>(81 - k));

  for (const int nranks : {1, 3, 4}) {
    for (const int variant : {0, 1, 2, 3}) {
      KmerAnalysisConfig cfg;
      cfg.k = k;
      cfg.min_count = 2;
      cfg.use_bloom = (variant & 1) == 0;
      cfg.use_heavy_hitters = (variant & 2) == 0;
      cfg.mg_capacity = 64;    // small: the poly runs become heavy hitters
      cfg.chunk_kmers = 1000;  // several exchange rounds
      SCOPED_TRACE(::testing::Message()
                   << "ranks=" << nranks << " bloom=" << cfg.use_bloom
                   << " heavy=" << cfg.use_heavy_hitters);
      const auto result = run_analysis(reads, cfg, nranks);
      if (cfg.use_heavy_hitters) {
        EXPECT_GT(result.heavy_count, 0u);
      }

      std::size_t expected = 0;
      for (const auto& [km, tally] : ref) {
        if (tally.count < 2) {
          EXPECT_EQ(result.ufx.count(km), 0u) << km;
          continue;
        }
        ++expected;
        auto it = result.ufx.find(km);
        ASSERT_NE(it, result.ufx.end()) << km;
        const auto want = summarize(tally, cfg.min_ext_count);
        EXPECT_EQ(it->second.depth, tally.count) << km;
        EXPECT_EQ(it->second.left_ext, want.left_ext) << km;
        EXPECT_EQ(it->second.right_ext, want.right_ext) << km;
      }
      EXPECT_EQ(result.ufx.size(), expected);
      EXPECT_EQ(result.ufx.count(all_a), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(K, KmerAnalysisWords,
                         ::testing::Values(21, 31, 32, 33, 51));

TEST(KmerAnalysis, HeavyHitterPathMatchesDefaultPath) {
  // Repetitive genome -> real heavy hitters; both paths must agree exactly.
  sim::GenomeConfig gc;
  gc.length = 60000;
  gc.repeat_fraction = 0.5;
  gc.repeat_families = 3;
  gc.repeat_unit_length = 300;
  gc.seed = 19;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 10.0;
  lc.error_rate = 0.001;
  lc.seed = 20;
  const auto reads = sim::simulate_library(genome, lc);

  KmerAnalysisConfig with_hh;
  with_hh.k = 21;
  with_hh.use_heavy_hitters = true;
  with_hh.mg_capacity = 4096;
  KmerAnalysisConfig without_hh = with_hh;
  without_hh.use_heavy_hitters = false;

  const auto a = run_analysis(reads, with_hh, 4);
  const auto b = run_analysis(reads, without_hh, 4);

  EXPECT_GT(a.heavy_count, 0u) << "repetitive genome must yield heavy hitters";
  ASSERT_EQ(a.ufx.size(), b.ufx.size());
  for (const auto& [km, summary] : a.ufx) {
    auto it = b.ufx.find(km);
    ASSERT_NE(it, b.ufx.end()) << km;
    EXPECT_EQ(summary.depth, it->second.depth) << km;
    EXPECT_EQ(summary.left_ext, it->second.left_ext) << km;
    EXPECT_EQ(summary.right_ext, it->second.right_ext) << km;
  }
}

TEST(KmerAnalysis, BloomOnOffAgreeOnSurvivingKmers) {
  sim::GenomeConfig gc;
  gc.length = 30000;
  gc.seed = 23;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 10.0;
  lc.error_rate = 0.005;
  lc.seed = 24;
  const auto reads = sim::simulate_library(genome, lc);

  KmerAnalysisConfig with_bloom;
  with_bloom.k = 21;
  with_bloom.use_bloom = true;
  KmerAnalysisConfig without_bloom = with_bloom;
  without_bloom.use_bloom = false;
  without_bloom.min_count = 2;

  const auto a = run_analysis(reads, with_bloom, 4);
  const auto b = run_analysis(reads, without_bloom, 4);
  ASSERT_EQ(a.ufx.size(), b.ufx.size());
  for (const auto& [km, summary] : a.ufx) {
    auto it = b.ufx.find(km);
    ASSERT_NE(it, b.ufx.end()) << km;
    EXPECT_EQ(summary.depth, it->second.depth);
  }
}

TEST(KmerAnalysis, ErrorKmersAreExcluded) {
  sim::GenomeConfig gc;
  gc.length = 30000;
  gc.seed = 29;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 15.0;
  lc.error_rate = 0.004;
  lc.seed = 30;
  const auto reads = sim::simulate_library(genome, lc);

  KmerAnalysisConfig cfg;
  cfg.k = 25;
  const auto result = run_analysis(reads, cfg, 4);

  // Reference set of true genomic canonical k-mers.
  std::map<std::string, int> genomic;
  for (std::size_t i = 0; i + 25 <= genome.primary.size(); ++i)
    ++genomic[KmerT::from_string(genome.primary.substr(i, 25)).canonical().to_string()];

  std::size_t true_found = 0;
  std::size_t false_kept = 0;
  for (const auto& [km, summary] : result.ufx) {
    if (genomic.count(km)) ++true_found;
    else ++false_kept;
  }
  // Nearly all genomic k-mers recovered; false k-mers (error pairs that
  // collided twice) are a tiny fraction.
  EXPECT_GT(static_cast<double>(true_found) / static_cast<double>(genomic.size()), 0.98);
  EXPECT_LT(static_cast<double>(false_kept) / static_cast<double>(result.ufx.size()), 0.02);
  // With 15x coverage and ~0.4% errors, most distinct k-mers observed are
  // singletons (the "95% for human" effect, directionally).
  EXPECT_GT(result.singleton_fraction, 0.5);
}

TEST(KmerAnalysis, CardinalityEstimateIsSane) {
  sim::GenomeConfig gc;
  gc.length = 40000;
  gc.seed = 31;
  const auto genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 8.0;
  lc.error_rate = 0.0;
  lc.seed = 32;
  const auto reads = sim::simulate_library(genome, lc);
  KmerAnalysisConfig cfg;
  cfg.k = 31;
  const auto result = run_analysis(reads, cfg, 2);
  // Error-free: distinct canonical k-mers ~= genome length - k + 1 (minus
  // coverage gaps and palindromic merges).
  EXPECT_NEAR(result.cardinality, 40000.0, 4000.0);
  EXPECT_NEAR(static_cast<double>(result.distinct), 40000.0, 4000.0);
}

// ---- min_count = 0: the cutoff resolved inside the analysis ----

struct SpectrumRun {
  std::vector<std::uint64_t> histogram;
  std::uint32_t min_count = 0;
  std::size_t heavy_hitters = 0;
  std::vector<std::vector<std::byte>> shards;  // encoded UFX, one per rank
};

SpectrumRun run_spectrum(const std::vector<seq::Read>& all_reads,
                         const KmerAnalysisConfig& cfg, int nranks) {
  pgas::ThreadTeam team(pgas::Topology{nranks, 2});
  KmerAnalysis ka(team, cfg);
  team.run([&](pgas::Rank& rank) {
    std::vector<seq::Read> mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id());
         i < all_reads.size(); i += static_cast<std::size_t>(rank.nranks()))
      mine.push_back(all_reads[i]);
    ka.run(rank, mine);
  });
  SpectrumRun out{ka.histogram(), ka.min_count(), ka.heavy_hitters().size(),
                  {}};
  for (int r = 0; r < nranks; ++r)
    out.shards.push_back(ckpt::encode_ufx_shard(ka.ufx(r)));
  return out;
}

/// Error-free ~15x reads: no error tail, so the valley sits at 2.
std::vector<seq::Read> clean_reads() {
  sim::GenomeConfig gc;
  gc.length = 15000;
  gc.seed = 41;
  sim::LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 15.0;
  lc.seed = 42;
  return sim::simulate_library(sim::simulate_genome(gc), lc);
}

/// A spectrum whose valley lies above 2. `choose_min_count` smooths count 1
/// into the count-2 point, and this histogram has no count-1 bucket, so any
/// k-mer seen exactly 4 times puts the valley at 2. Here every k-mer occurs
/// an exact number of times: error tails at 2 and 3, nothing from 4 to 9,
/// a coverage hump at 10, and a repeat at 400 that becomes a heavy hitter.
std::vector<seq::Read> gapped_spectrum_reads() {
  std::mt19937_64 rng(43);
  std::vector<seq::Read> reads;
  const auto emit = [&](int segments, int copies) {
    for (int s = 0; s < segments; ++s) {
      const std::string dna = sim::random_dna(100, rng);
      for (int c = 0; c < copies; ++c)
        reads.push_back(seq::Read{"r" + std::to_string(reads.size()), dna,
                                  std::string(dna.size(), 'I')});
    }
  };
  emit(60, 10);
  emit(40, 2);
  emit(15, 3);
  emit(1, 400);
  std::shuffle(reads.begin(), reads.end(), rng);
  return reads;
}

class AutoMinCountParam : public ::testing::TestWithParam<int> {};

TEST_P(AutoMinCountParam, MatchesProbeThenRerun) {
  const int nranks = GetParam();
  const struct {
    const char* name;
    std::vector<seq::Read> reads;
    std::uint32_t valley;
    bool heavy;
  } datasets[] = {{"clean", clean_reads(), 2, false},
                  {"gapped", gapped_spectrum_reads(), 8, true}};
  for (const auto& ds : datasets) {
    SCOPED_TRACE(ds.name);
    KmerAnalysisConfig cfg;
    cfg.k = 21;
    cfg.mg_capacity = 1024;  // small data: keep the heavy-hitter path live

    // The old recipe: probe with the same config, pick the valley, run
    // again with that cutoff.
    const auto probe = run_spectrum(ds.reads, cfg, nranks);
    const std::uint32_t cutoff = choose_min_count(probe.histogram);
    KmerAnalysisConfig pinned = cfg;
    pinned.min_count = cutoff;
    const auto rerun = run_spectrum(ds.reads, pinned, nranks);

    KmerAnalysisConfig automatic = cfg;
    automatic.min_count = 0;
    const auto one_pass = run_spectrum(ds.reads, automatic, nranks);

    EXPECT_EQ(cutoff, ds.valley);
    EXPECT_EQ(one_pass.heavy_hitters > 0, ds.heavy);
    EXPECT_EQ(one_pass.min_count, cutoff);
    EXPECT_EQ(rerun.min_count, cutoff);
    EXPECT_EQ(one_pass.histogram, probe.histogram);
    EXPECT_EQ(rerun.histogram, probe.histogram);
    EXPECT_EQ(one_pass.shards, rerun.shards);
    // The spectrum is exact on any team size: every k-mer seen at least
    // twice, counted before the purge.
    std::vector<std::uint64_t> expected(256, 0);
    for (const auto& [km, tally] :
         reference_tallies(ds.reads, cfg.k, cfg.qual_threshold))
      if (tally.count >= 2) ++expected[std::min<std::uint32_t>(tally.count, 255)];
    EXPECT_EQ(one_pass.histogram, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, AutoMinCountParam, ::testing::Values(1, 4, 6));

TEST(KmerAnalysis, ParseMinCount) {
  EXPECT_EQ(parse_min_count("auto"), 0u);
  EXPECT_EQ(parse_min_count("1"), 1u);
  EXPECT_EQ(parse_min_count("17"), 17u);
  for (const char* bad : {"", "0", "abc", "3x", "-2", "+2", " 2", "1.5",
                          "AUTO", "99999999999"})
    EXPECT_FALSE(parse_min_count(bad).has_value()) << bad;
}

}  // namespace
}  // namespace hipmer::kcount
