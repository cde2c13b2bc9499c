#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>

#include "pgas/chaos.hpp"
#include "pipeline/pipeline.hpp"
#include "seq/dna.hpp"
#include "sim/datasets.hpp"
#include "sim/read_sim.hpp"
#include "seq/kmer_scanner.hpp"
#include "util/hash.hpp"
#include <unordered_set>

namespace hipmer::pipeline {
namespace {

namespace fs = std::filesystem;

/// Fraction of the reference covered by exact scaffold placements
/// (greedy, both strands; N-split scaffolds are matched piecewise).
double reference_coverage(const std::string& reference,
                          const std::vector<io::FastaRecord>& scaffolds) {
  std::vector<bool> covered(reference.size(), false);
  auto mark = [&](const std::string& piece) {
    if (piece.size() < 31) return;
    for (const std::string& s : {piece, seq::revcomp(piece)}) {
      const std::size_t pos = reference.find(s);
      if (pos == std::string::npos) continue;
      for (std::size_t i = pos; i < pos + s.size(); ++i) covered[i] = true;
      return;
    }
  };
  for (const auto& rec : scaffolds) {
    // Split on N runs; each real segment should be an exact substring.
    std::size_t start = 0;
    while (start < rec.seq.size()) {
      const std::size_t n = rec.seq.find('N', start);
      const std::size_t end = (n == std::string::npos) ? rec.seq.size() : n;
      if (end > start) mark(rec.seq.substr(start, end - start));
      if (n == std::string::npos) break;
      start = rec.seq.find_first_not_of('N', n);
      if (start == std::string::npos) break;
    }
  }
  const auto hit = static_cast<double>(
      std::count(covered.begin(), covered.end(), true));
  return hit / static_cast<double>(reference.size());
}

/// K-mer spectrum comparison, the right fidelity metric for diploid
/// assemblies: bubble merging picks one haplotype per site, so a scaffold
/// is a haplotype *mosaic* and exact substring matching fails even for a
/// perfect assembly.
struct KmerFidelity {
  /// Fraction of scaffold k-mers present in the reference (union of
  /// haplotypes): ~1 unless sequence was fabricated.
  double accuracy = 0.0;
  /// Fraction of primary-haplotype k-mers recovered in the scaffolds.
  double completeness = 0.0;
};

KmerFidelity kmer_fidelity(const sim::Genome& genome,
                           const std::vector<io::FastaRecord>& scaffolds,
                           int k = 31) {
  using seq::KmerT;
  std::unordered_set<KmerT, seq::KmerHashT> ref_union;
  std::unordered_set<KmerT, seq::KmerHashT> ref_primary;
  for (seq::KmerScanner<KmerT::kMaxK> it(genome.primary, k); !it.done();
       it.next()) {
    ref_union.insert(it.canonical());
    ref_primary.insert(it.canonical());
  }
  if (genome.diploid()) {
    for (seq::KmerScanner<KmerT::kMaxK> it(genome.secondary, k); !it.done();
         it.next())
      ref_union.insert(it.canonical());
  }
  std::unordered_set<KmerT, seq::KmerHashT> assembled;
  for (const auto& rec : scaffolds)
    for (seq::KmerScanner<KmerT::kMaxK> it(rec.seq, k); !it.done(); it.next())
      assembled.insert(it.canonical());

  KmerFidelity f;
  std::size_t good = 0;
  for (const auto& km : assembled) good += ref_union.contains(km);
  f.accuracy = assembled.empty()
                   ? 0.0
                   : static_cast<double>(good) / static_cast<double>(assembled.size());
  std::size_t found = 0;
  for (const auto& km : ref_primary) found += assembled.contains(km);
  f.completeness = ref_primary.empty()
                       ? 0.0
                       : static_cast<double>(found) /
                             static_cast<double>(ref_primary.size());
  return f;
}

PipelineConfig small_config(int k = 25) {
  PipelineConfig cfg;
  cfg.k = k;
  // ~20x datasets with Illumina-like 0.8% errors: count >= 3 keeps repeated
  // error k-mers (two miscalls of the same base) out of the contigs.
  cfg.kmer.min_count = 3;
  cfg.sync_k();
  return cfg;
}

TEST(Pipeline, EndToEndHumanLike) {
  auto ds = sim::make_human_like(60000, 7771);
  Pipeline pipeline(pgas::Topology{4, 2}, small_config());
  const auto result = pipeline.run(ds.reads, ds.libraries);

  // The assembly exists and is substantial.
  ASSERT_GT(result.scaffolds.size(), 0u);
  EXPECT_GT(result.num_contigs, 0u);
  EXPECT_GT(result.scaffold_stats.total_length, 50000u);

  // Scaffolding improves contiguity over raw contigs.
  EXPECT_GE(result.scaffold_stats.n50, result.contig_stats.n50);

  // Assembled sequence is faithful (haplotype-mosaic aware): no fabricated
  // sequence, and nearly the whole genome recovered.
  const auto fidelity = kmer_fidelity(ds.genome, result.scaffolds);
  EXPECT_GT(fidelity.accuracy, 0.99);
  EXPECT_GT(fidelity.completeness, 0.90);

  // Every stage ran.
  EXPECT_GT(result.wall_for(kStageKmerAnalysis), 0.0);
  EXPECT_GT(result.wall_for(kStageContigGen), 0.0);
  EXPECT_GT(result.wall_for(kStageAligner), 0.0);
  EXPECT_GT(result.wall_for(kStageGapClosing), 0.0);
  EXPECT_GT(result.modeled_total(), 0.0);

  // Insert size was recovered (the simulator used 395 +/- 30).
  ASSERT_FALSE(result.insert_estimates.empty());
  EXPECT_NEAR(result.insert_estimates[0].mean, 395.0, 20.0);
}

TEST(Pipeline, EndToEndWheatLike) {
  auto ds = sim::make_wheat_like(80000, 7773);
  auto cfg = small_config(25);
  cfg.merge_bubbles = false;  // homozygous line
  cfg.scaffolding_rounds = 2;
  Pipeline pipeline(pgas::Topology{4, 2}, cfg);
  const auto result = pipeline.run(ds.reads, ds.libraries);

  ASSERT_GT(result.scaffolds.size(), 0u);
  // Repeats fragment the contigs badly...
  EXPECT_GT(result.num_contigs, 20u);
  // ...and heavy hitters exist in the k-mer spectrum.
  EXPECT_GT(result.heavy_hitters, 0u);
  // Scaffolding stitches across repeats: N50 improves substantially.
  EXPECT_GT(result.scaffold_stats.n50, result.contig_stats.n50);
}

/// Scaffold sequences, each in its lexicographically smaller orientation,
/// sorted: the assembly up to naming and strand.
std::vector<std::string> canonical_scaffolds(
    const std::vector<io::FastaRecord>& scaffolds) {
  std::vector<std::string> seqs;
  for (const auto& rec : scaffolds)
    seqs.push_back(std::min(rec.seq, seq::revcomp(rec.seq)));
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

TEST(Pipeline, DeterministicAcrossRankCounts) {
  auto ds = sim::make_human_like(30000, 7779, 15.0);
  std::vector<std::string> reference_scaffolds;
  for (int nranks : {1, 3, 4}) {
    Pipeline pipeline(pgas::Topology{nranks, 2}, small_config());
    const auto result = pipeline.run(ds.reads, ds.libraries);
    const auto seqs = canonical_scaffolds(result.scaffolds);
    if (reference_scaffolds.empty()) {
      reference_scaffolds = seqs;
    } else {
      EXPECT_EQ(seqs, reference_scaffolds) << "nranks=" << nranks;
    }
  }

  // FASTQ ingest splits each file at record boundaries, so which reads
  // share a rank (and whether a pair's mates do) depends on the team size.
  // Several libraries number their pairs independently; a pair index
  // therefore names one read per library.
  auto wheat = sim::make_wheat_like(60000, 7797);
  const auto dir = fs::temp_directory_path() /
                   ("hipmer_det_" + std::to_string(std::random_device{}()));
  fs::create_directories(dir);
  ASSERT_TRUE(sim::write_dataset_fastq(wheat, dir.string()));
  auto cfg = small_config();
  cfg.merge_bubbles = false;
  cfg.scaffolding_rounds = 2;
  std::vector<std::string> wheat_scaffolds;
  std::vector<scaffold::InsertSizeEstimate> wheat_inserts;
  for (int nranks : {1, 3, 4}) {
    Pipeline pipeline(pgas::Topology{nranks, 2}, cfg);
    const auto result = pipeline.run_from_fastq(wheat.libraries);
    const auto seqs = canonical_scaffolds(result.scaffolds);
    if (nranks == 1) {
      ASSERT_FALSE(seqs.empty());
      wheat_scaffolds = seqs;
      wheat_inserts = result.insert_estimates;
      continue;
    }
    EXPECT_EQ(seqs, wheat_scaffolds) << "FASTQ, nranks=" << nranks;
    ASSERT_EQ(result.insert_estimates.size(), wheat_inserts.size());
    for (std::size_t lib = 0; lib < wheat_inserts.size(); ++lib) {
      EXPECT_EQ(result.insert_estimates[lib].samples,
                wheat_inserts[lib].samples)
          << "FASTQ, nranks=" << nranks << ", library " << lib;
      EXPECT_EQ(result.insert_estimates[lib].mean, wheat_inserts[lib].mean)
          << "FASTQ, nranks=" << nranks << ", library " << lib;
      EXPECT_EQ(result.insert_estimates[lib].stddev,
                wheat_inserts[lib].stddev)
          << "FASTQ, nranks=" << nranks << ", library " << lib;
    }
  }
  fs::remove_all(dir);
}

/// 64-bit digest of the scaffold records, each written as "name\nseq\n".
std::uint64_t scaffold_digest(int nranks, const PipelineConfig& cfg,
                              const sim::Dataset& ds) {
  Pipeline pipeline(pgas::Topology{nranks, 2}, cfg);
  const auto result = pipeline.run(ds.reads, ds.libraries);
  std::string buf;
  for (const auto& rec : result.scaffolds) {
    buf += rec.name;
    buf += '\n';
    buf += rec.seq;
    buf += '\n';
  }
  return util::hash_bytes(buf.data(), buf.size());
}

// Golden scaffold digests, recorded from the string-read and packed-read
// paths before the string path was retired (identical on both, in Release
// and Debug builds). Human-like 30 kbp at 15x, k=25, min count 3:
// seed 4242, one round (35 scaffolds); seed 4243, two rounds (50).
constexpr std::uint64_t kGoldenHuman4242 = 0xd7bf7407d2889b4dULL;
constexpr std::uint64_t kGoldenHuman4243TwoRounds = 0x00e90368cc56e9a5ULL;

TEST(Pipeline, GoldenDigestAcrossRankCounts) {
  auto ds = sim::make_human_like(30000, 4242, 15.0);
  for (const int nranks : {3, 4})
    EXPECT_EQ(scaffold_digest(nranks, small_config(), ds), kGoldenHuman4242)
        << "output moved at nranks=" << nranks;
}

TEST(Pipeline, GoldenDigestUnderChaosAndMultipleRounds) {
  auto ds = sim::make_human_like(30000, 4243, 15.0);
  auto cfg = small_config();
  cfg.scaffolding_rounds = 2;
  EXPECT_EQ(scaffold_digest(4, cfg, ds), kGoldenHuman4243TwoRounds);

  cfg.chaos = pgas::ChaosPlan::parse(23, "drop=0.05,dup=0.05");
  EXPECT_EQ(scaffold_digest(4, cfg, ds), kGoldenHuman4243TwoRounds);
}

TEST(Pipeline, FromFastqMatchesInMemory) {
  auto ds = sim::make_human_like(25000, 7781, 15.0);
  const auto dir = fs::temp_directory_path() /
                   ("hipmer_pipe_" + std::to_string(std::random_device{}()));
  fs::create_directories(dir);
  ASSERT_TRUE(sim::write_dataset_fastq(ds, dir.string()));

  Pipeline mem_pipeline(pgas::Topology{3, 2}, small_config());
  const auto mem = mem_pipeline.run(ds.reads, ds.libraries);
  Pipeline fastq_pipeline(pgas::Topology{3, 2}, small_config());
  const auto fastq = fastq_pipeline.run_from_fastq(ds.libraries);
  fs::remove_all(dir);

  EXPECT_EQ(canonical_scaffolds(mem.scaffolds),
            canonical_scaffolds(fastq.scaffolds));
  // The FASTQ path reports I/O.
  EXPECT_GT(fastq.wall_for(kStageIo), 0.0);
  std::uint64_t io_bytes = fastq.stages[0].comm.io_read_bytes;
  EXPECT_GT(io_bytes, 0u);
}

TEST(Pipeline, GapsAreClosedOnCleanData) {
  // Moderate repeats fragment contigs; with clean reads the gap closer
  // should seal most scaffold gaps.
  sim::Dataset ds;
  ds.name = "gaps";
  sim::GenomeConfig gc;
  gc.length = 50000;
  gc.repeat_fraction = 0.25;
  gc.repeat_families = 5;
  gc.repeat_unit_length = 120;  // repeats longer than k but shorter than reads
  gc.seed = 7787;
  ds.genome = sim::simulate_genome(gc);
  sim::LibraryConfig lc;
  lc.name = "pe";
  lc.read_length = 100;
  lc.mean_insert = 350.0;
  lc.stddev_insert = 30.0;
  lc.coverage = 20.0;
  lc.error_rate = 0.0;
  lc.seed = 7789;
  ds.libraries.push_back(seq::ReadLibrary{"pe", 350.0, 30.0, 100, "", true});
  ds.reads.push_back(sim::simulate_library(ds.genome, lc));

  auto cfg = small_config(31);
  cfg.merge_bubbles = false;
  Pipeline pipeline(pgas::Topology{4, 2}, cfg);
  const auto result = pipeline.run(ds.reads, ds.libraries);
  if (result.closure_stats.gaps_total > 0) {
    EXPECT_GT(static_cast<double>(result.closure_stats.gaps_closed),
              0.5 * static_cast<double>(result.closure_stats.gaps_total));
  }
  // Closed gaps must contain real sequence: scaffolds still map exactly.
  const double cov = reference_coverage(ds.genome.primary, result.scaffolds);
  EXPECT_GT(cov, 0.8);
}

}  // namespace
}  // namespace hipmer::pipeline
