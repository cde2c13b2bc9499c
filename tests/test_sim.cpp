#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "seq/dna.hpp"
#include "sim/datasets.hpp"
#include "sim/genome_sim.hpp"
#include "sim/metagenome_sim.hpp"
#include "sim/read_sim.hpp"
#include "util/stats.hpp"

namespace hipmer::sim {
namespace {

TEST(GenomeSim, DeterministicInSeed) {
  GenomeConfig gc;
  gc.length = 10000;
  gc.seed = 5;
  const auto a = simulate_genome(gc);
  const auto b = simulate_genome(gc);
  EXPECT_EQ(a.primary, b.primary);
  gc.seed = 6;
  EXPECT_NE(simulate_genome(gc).primary, a.primary);
}

TEST(GenomeSim, LengthAndAlphabet) {
  GenomeConfig gc;
  gc.length = 5000;
  gc.repeat_fraction = 0.4;
  const auto g = simulate_genome(gc);
  EXPECT_EQ(g.primary.size(), 5000u);
  EXPECT_TRUE(seq::is_valid_dna(g.primary));
  EXPECT_FALSE(g.diploid());
}

TEST(GenomeSim, DiploidHeterozygosityRate) {
  GenomeConfig gc;
  gc.length = 200000;
  gc.heterozygosity = 0.002;
  gc.seed = 9;
  const auto g = simulate_genome(gc);
  ASSERT_TRUE(g.diploid());
  ASSERT_EQ(g.secondary.size(), g.primary.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < g.primary.size(); ++i)
    diffs += g.primary[i] != g.secondary[i];
  const double rate = static_cast<double>(diffs) / static_cast<double>(g.primary.size());
  EXPECT_NEAR(rate, 0.002, 0.0005);
}

TEST(GenomeSim, RepeatFractionCreatesDuplicateKmers) {
  GenomeConfig unique_cfg;
  unique_cfg.length = 100000;
  unique_cfg.seed = 21;
  GenomeConfig repeat_cfg = unique_cfg;
  repeat_cfg.repeat_fraction = 0.5;
  repeat_cfg.repeat_families = 6;
  repeat_cfg.repeat_unit_length = 400;

  auto count_distinct = [](const std::string& s) {
    std::map<std::string, int> counts;
    for (std::size_t i = 0; i + 21 <= s.size(); ++i) ++counts[s.substr(i, 21)];
    std::size_t repeated = 0;
    for (const auto& [k, c] : counts) repeated += c > 10;
    return repeated;
  };
  EXPECT_EQ(count_distinct(simulate_genome(unique_cfg).primary), 0u);
  EXPECT_GT(count_distinct(simulate_genome(repeat_cfg).primary), 1000u);
}

TEST(GenomeSim, MutateIndividualRate) {
  std::mt19937_64 rng(31);
  const auto g = random_dna(100000, rng);
  const auto m = mutate_individual(g, 0.003, 17);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < g.size(); ++i) diffs += g[i] != m[i];
  EXPECT_NEAR(static_cast<double>(diffs) / 100000.0, 0.003, 0.001);
}

TEST(ReadSim, CoverageAndLengths) {
  GenomeConfig gc;
  gc.length = 50000;
  gc.seed = 41;
  const auto g = simulate_genome(gc);
  LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 10.0;
  lc.mean_insert = 300.0;
  lc.error_rate = 0.0;
  const auto reads = simulate_library(g, lc);
  EXPECT_EQ(reads.size() % 2, 0u);
  std::uint64_t bases = 0;
  for (const auto& r : reads) {
    EXPECT_EQ(r.seq.size(), 100u);
    EXPECT_EQ(r.quals.size(), r.seq.size());
    bases += r.seq.size();
  }
  const double cov = static_cast<double>(bases) / 50000.0;
  EXPECT_NEAR(cov, 10.0, 0.5);
}

TEST(ReadSim, ErrorFreeReadsAreExactSubstrings) {
  GenomeConfig gc;
  gc.length = 20000;
  gc.seed = 43;
  const auto g = simulate_genome(gc);
  LibraryConfig lc;
  lc.read_length = 80;
  lc.coverage = 3.0;
  lc.error_rate = 0.0;
  const auto reads = simulate_library(g, lc);
  for (std::size_t i = 0; i < std::min<std::size_t>(reads.size(), 100); ++i) {
    const auto& r = reads[i];
    const bool fwd = g.primary.find(r.seq) != std::string::npos;
    const bool rev = g.primary.find(seq::revcomp(r.seq)) != std::string::npos;
    EXPECT_TRUE(fwd || rev) << r.name;
  }
}

TEST(ReadSim, InsertSizeDistributionRecoverable) {
  // Mate placement must encode the insert size: for an error-free pair,
  // distance between mate0 start and mate1 end (on the forward strand)
  // equals the fragment length.
  GenomeConfig gc;
  gc.length = 100000;
  gc.seed = 47;
  const auto g = simulate_genome(gc);
  LibraryConfig lc;
  lc.read_length = 50;
  lc.coverage = 5.0;
  lc.mean_insert = 400.0;
  lc.stddev_insert = 25.0;
  lc.error_rate = 0.0;
  const auto reads = simulate_library(g, lc);
  std::vector<double> inserts;
  for (std::size_t i = 0; i + 1 < reads.size(); i += 2) {
    const auto p0 = g.primary.find(reads[i].seq);
    const auto p1 = g.primary.find(seq::revcomp(reads[i + 1].seq));
    if (p0 == std::string::npos || p1 == std::string::npos) continue;
    if (p1 + 50 < p0) continue;
    inserts.push_back(static_cast<double>(p1 + 50 - p0));
  }
  ASSERT_GT(inserts.size(), 50u);
  const auto summary = util::summarize(inserts);
  EXPECT_NEAR(summary.mean, 400.0, 15.0);
  EXPECT_NEAR(summary.stddev, 25.0, 12.0);
}

TEST(ReadSim, ErrorRateApproximatelyRespected) {
  GenomeConfig gc;
  gc.length = 30000;
  gc.seed = 53;
  const auto g = simulate_genome(gc);
  LibraryConfig lc;
  lc.read_length = 100;
  lc.coverage = 8.0;
  lc.error_rate = 0.01;
  const auto reads = simulate_library(g, lc);
  // Errors show up as reads that are no longer exact substrings; count
  // mismatches of mate 0 against its true locus via best-effort search of
  // the error-free prefix. Simpler robust proxy: low-quality bases track
  // errors (the model gives errors low quality ~95% of the time).
  std::uint64_t low_q = 0;
  std::uint64_t total = 0;
  for (const auto& r : reads) {
    for (char q : r.quals) low_q += seq::phred(q) < 25;
    total += r.quals.size();
  }
  const double rate = static_cast<double>(low_q) / static_cast<double>(total);
  EXPECT_NEAR(rate, 0.01 * 0.95, 0.004);
}

TEST(ReadSim, ParseReadName) {
  std::uint64_t pair = 0;
  int mate = -1;
  EXPECT_TRUE(parse_read_name("pe395:12345/1", pair, mate));
  EXPECT_EQ(pair, 12345u);
  EXPECT_EQ(mate, 1);
  EXPECT_TRUE(parse_read_name("lib:0/0", pair, mate));
  EXPECT_EQ(pair, 0u);
  EXPECT_EQ(mate, 0);
  EXPECT_FALSE(parse_read_name("garbage", pair, mate));
  EXPECT_FALSE(parse_read_name("lib:/0", pair, mate));
  EXPECT_FALSE(parse_read_name("lib:5/2", pair, mate));
}

TEST(Metagenome, CommunityStructure) {
  MetagenomeConfig mc;
  mc.num_species = 20;
  mc.mean_genome_length = 20000;
  mc.total_coverage = 5.0;
  mc.seed = 61;
  const auto mg = simulate_metagenome(mc);
  EXPECT_EQ(mg.species.size(), 20u);
  double sum = 0;
  for (double a : mg.abundance) {
    EXPECT_GE(a, 0.0);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(mg.reads.size(), 100u);
  EXPECT_EQ(mg.reads.size() % 2, 0u);
  // Mates stay adjacent after the shuffle.
  for (std::size_t i = 0; i + 1 < mg.reads.size(); i += 2) {
    std::uint64_t p0 = 0;
    std::uint64_t p1 = 0;
    int m0 = 0;
    int m1 = 0;
    ASSERT_TRUE(parse_read_name(mg.reads[i].name, p0, m0));
    ASSERT_TRUE(parse_read_name(mg.reads[i + 1].name, p1, m1));
    EXPECT_EQ(p0, p1);
    EXPECT_EQ(m0, 0);
    EXPECT_EQ(m1, 1);
  }
}

TEST(Datasets, HumanLikeShape) {
  auto ds = make_human_like(100000, 71);
  EXPECT_TRUE(ds.genome.diploid());
  ASSERT_EQ(ds.libraries.size(), 1u);
  EXPECT_EQ(ds.libraries[0].read_length, 101);
  EXPECT_NEAR(ds.libraries[0].mean_insert, 395.0, 1e-9);
  const double cov = static_cast<double>(ds.total_bases()) / 100000.0;
  EXPECT_NEAR(cov, 20.0, 1.5);
}

TEST(Datasets, WheatLikeShape) {
  auto ds = make_wheat_like(200000, 73);
  EXPECT_FALSE(ds.genome.diploid());
  ASSERT_EQ(ds.libraries.size(), 5u);  // 3 short + 2 long insert
  EXPECT_NEAR(ds.libraries[3].mean_insert, 1000.0, 1e-9);
  EXPECT_NEAR(ds.libraries[4].mean_insert, 4200.0, 1e-9);
  // Short inserts build contigs; the mate pairs only scaffold them.
  for (std::size_t lib = 0; lib < ds.libraries.size(); ++lib)
    EXPECT_EQ(ds.libraries[lib].for_contigging, lib < 3) << lib;
}

}  // namespace
}  // namespace hipmer::sim
