#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <set>

#include "seq/dna.hpp"
#include "seq/extensions.hpp"
#include "seq/kmer.hpp"
#include "seq/kmer_scanner.hpp"
#include "seq/read.hpp"
#include "seq/types.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

// Global allocation counter: the zero-allocation guarantee of KmerScanner's
// inner loop is asserted by snapshotting this around the scan.
namespace {
std::atomic<std::size_t> g_allocations{0};
}

// GCC flags free() inside a replaced operator delete as mismatched; the
// pairing is correct because the replaced operator new above uses malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hipmer::seq {
namespace {

std::string random_dna_string(std::size_t n, std::mt19937_64& rng) {
  static constexpr char bases[4] = {'A', 'C', 'G', 'T'};
  std::string s(n, 'A');
  std::uniform_int_distribution<int> dist(0, 3);
  for (auto& c : s) c = bases[dist(rng)];
  return s;
}

TEST(Dna, BaseCodesRoundTrip) {
  for (char c : {'A', 'C', 'G', 'T'}) {
    EXPECT_EQ(code_to_base(base_to_code(c)), c);
  }
  EXPECT_EQ(base_to_code('N'), kBaseInvalid);
  EXPECT_EQ(base_to_code('a'), kBaseA);
  EXPECT_EQ(base_to_code('t'), kBaseT);
}

TEST(Dna, ComplementIsInvolution) {
  for (std::uint8_t code = 0; code < 4; ++code)
    EXPECT_EQ(complement_code(complement_code(code)), code);
  for (char c : {'A', 'C', 'G', 'T'})
    EXPECT_EQ(complement_base(complement_base(c)), c);
}

TEST(Dna, RevcompKnownValues) {
  EXPECT_EQ(revcomp("ACGT"), "ACGT");  // palindrome
  EXPECT_EQ(revcomp("AAAA"), "TTTT");
  EXPECT_EQ(revcomp("GATTACA"), "TGTAATC");
  EXPECT_EQ(revcomp(""), "");
}

TEST(Dna, RevcompIsInvolutionProperty) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = random_dna_string(1 + trial * 3, rng);
    EXPECT_EQ(revcomp(revcomp(s)), s);
  }
}

TEST(Dna, IsValidDna) {
  EXPECT_TRUE(is_valid_dna("ACGTacgt"));
  EXPECT_FALSE(is_valid_dna("ACGTN"));
  EXPECT_TRUE(is_valid_dna(""));
}

TEST(Kmer, FromStringToStringRoundTrip) {
  for (const char* s : {"A", "ACGT", "GATTACA", "TTTTTTTTTTTTTTTTTTTTT"}) {
    EXPECT_EQ(KmerT::from_string(s).to_string(), s);
  }
}

TEST(Kmer, RoundTripProperty) {
  std::mt19937_64 rng(13);
  for (int k = 1; k <= KmerT::kMaxK; ++k) {
    const auto s = random_dna_string(static_cast<std::size_t>(k), rng);
    const auto km = KmerT::from_string(s);
    EXPECT_EQ(km.k(), k);
    EXPECT_EQ(km.to_string(), s);
  }
}

TEST(Kmer, RevcompMatchesStringRevcomp) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 1 + static_cast<int>(rng() % KmerT::kMaxK);
    const auto s = random_dna_string(static_cast<std::size_t>(k), rng);
    EXPECT_EQ(KmerT::from_string(s).revcomp().to_string(), revcomp(s));
  }
}

TEST(Kmer, CanonicalIsStrandInvariant) {
  std::mt19937_64 rng(19);
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 1 + static_cast<int>(rng() % KmerT::kMaxK);
    const auto s = random_dna_string(static_cast<std::size_t>(k), rng);
    const auto km = KmerT::from_string(s);
    EXPECT_EQ(km.canonical(), km.revcomp().canonical());
    EXPECT_TRUE(km.canonical().is_canonical());
  }
}

TEST(Kmer, OrderingMatchesStringOrdering) {
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    const int k = 1 + static_cast<int>(rng() % 40);
    const auto a = random_dna_string(static_cast<std::size_t>(k), rng);
    const auto b = random_dna_string(static_cast<std::size_t>(k), rng);
    EXPECT_EQ(KmerT::from_string(a) < KmerT::from_string(b), a < b)
        << a << " vs " << b;
  }
}

TEST(Kmer, OrderingMatchesStringOrderingMixedLengths) {
  std::mt19937_64 rng(27);
  for (int trial = 0; trial < 60; ++trial) {
    const int ka = 1 + static_cast<int>(rng() % KmerT::kMaxK);
    const int kb = 1 + static_cast<int>(rng() % KmerT::kMaxK);
    auto a = random_dna_string(static_cast<std::size_t>(ka), rng);
    auto b = random_dna_string(static_cast<std::size_t>(kb), rng);
    if ((rng() & 1) != 0 && ka <= kb) a = b.substr(0, static_cast<std::size_t>(ka));
    EXPECT_EQ(KmerT::from_string(a) < KmerT::from_string(b), a < b)
        << a << " vs " << b;
  }
}

TEST(Kmer, ShiftedLeftWalksSequence) {
  const std::string s = "ACGTTGCAGT";
  const int k = 4;
  auto km = KmerT::from_string(s.substr(0, k));
  for (std::size_t i = static_cast<std::size_t>(k); i < s.size(); ++i) {
    km = km.shifted_left(base_to_code(s[i]));
    EXPECT_EQ(km.to_string(), s.substr(i - k + 1, k));
  }
}

TEST(Kmer, ShiftedRightWalksBackward) {
  const std::string s = "ACGTTGCAGT";
  const int k = 4;
  auto km = KmerT::from_string(s.substr(s.size() - k));
  for (std::size_t i = s.size() - k; i > 0; --i) {
    km = km.shifted_right(base_to_code(s[i - 1]));
    EXPECT_EQ(km.to_string(), s.substr(i - 1, k));
  }
}

TEST(Kmer, HashDiffersAcrossKmers) {
  std::mt19937_64 rng(29);
  std::set<std::uint64_t> hashes;
  for (int trial = 0; trial < 500; ++trial) {
    const auto s = random_dna_string(21, rng);
    hashes.insert(KmerT::from_string(s).hash());
  }
  // Random 21-mers essentially never collide in 64-bit space.
  EXPECT_GT(hashes.size(), 495u);
}

TEST(Kmer, WordsRoundTripAcrossWidths) {
  // A k-mer ships as its bare packed words; the receiver rebuilds it with
  // the run's k, in a type of any width that holds k, with the same hash.
  std::mt19937_64 rng(61);
  for (int k = 1; k <= 64; ++k) {
    const std::string s = sim::random_dna(static_cast<std::uint64_t>(k), rng);
    const auto km = Kmer<64>::from_string(s);
    const std::array<std::uint64_t, 2> words{km.word(0), km.word(1)};
    const auto back = Kmer<64>::from_words(k, words.data());
    EXPECT_EQ(back, km) << s;
    EXPECT_EQ(back.hash(), km.hash()) << s;
    const auto wide = Kmer<96>::from_words(k, words.data());
    EXPECT_EQ(wide.to_string(), s);
    EXPECT_EQ(wide.hash(), km.hash()) << s;
    if (k > 32) continue;
    EXPECT_EQ(km.word(1), 0u) << s;
    const auto narrow = Kmer<32>::from_words(k, words.data());
    EXPECT_EQ(narrow.to_string(), s);
    EXPECT_EQ(narrow.hash(), km.hash()) << s;
  }
}

TEST(Kmer, EqualityRequiresSameK) {
  const auto a = KmerT::from_string("ACGT");
  const auto b = KmerT::from_string("ACGTA");
  EXPECT_NE(a, b);
}

// ---- word-parallel kernels vs retained base-loop references ----

template <typename KmerType>
class KmerWordKernels : public ::testing::Test {};

using KmerWidths = ::testing::Types<Kmer<32>, Kmer<64>, Kmer<96>>;
TYPED_TEST_SUITE(KmerWordKernels, KmerWidths);

TYPED_TEST(KmerWordKernels, KernelsMatchReferenceForRandomK) {
  using K = TypeParam;
  std::mt19937_64 rng(static_cast<std::uint64_t>(K::kMaxK) * 101 + 7);
  for (int trial = 0; trial < 300; ++trial) {
    const int k = 1 + static_cast<int>(rng() % K::kMaxK);
    const auto s = random_dna_string(static_cast<std::size_t>(k), rng);
    const auto km = K::from_string(s);
    const auto code = static_cast<std::uint8_t>(rng() & 3);

    EXPECT_EQ(km.revcomp(), km.revcomp_reference()) << s;
    EXPECT_EQ(km.canonical(), km.canonical_reference()) << s;
    EXPECT_EQ(km.is_canonical(), !K::less_reference(km.revcomp_reference(), km))
        << s;
    EXPECT_EQ(km.shifted_left(code), km.shifted_left_reference(code)) << s;
    EXPECT_EQ(km.shifted_right(code), km.shifted_right_reference(code)) << s;
    EXPECT_EQ(km.hash(), km.hash_reference()) << s;

    // Word kernels must not leave stale bits past base k-1: hash_reference
    // repacks every base, so it diverges from hash() on a dirty tail.
    const auto rc = km.revcomp();
    EXPECT_EQ(rc.hash(), rc.hash_reference()) << s;
    const auto sl = km.shifted_left(code);
    EXPECT_EQ(sl.hash(), sl.hash_reference()) << s;
    const auto sr = km.shifted_right(code);
    EXPECT_EQ(sr.hash(), sr.hash_reference()) << s;
  }
}

TYPED_TEST(KmerWordKernels, OrderingMatchesReference) {
  using K = TypeParam;
  std::mt19937_64 rng(static_cast<std::uint64_t>(K::kMaxK) * 131 + 3);
  for (int trial = 0; trial < 300; ++trial) {
    const int ka = 1 + static_cast<int>(rng() % K::kMaxK);
    const int kb = 1 + static_cast<int>(rng() % K::kMaxK);
    auto sa = random_dna_string(static_cast<std::size_t>(ka), rng);
    auto sb = random_dna_string(static_cast<std::size_t>(kb), rng);
    // Bias toward shared prefixes, where the tie-breaking rules live.
    if ((rng() & 1) != 0 && ka <= kb) sa = sb.substr(0, static_cast<std::size_t>(ka));
    const auto a = K::from_string(sa);
    const auto b = K::from_string(sb);
    EXPECT_EQ(a < b, K::less_reference(a, b)) << sa << " vs " << sb;
    EXPECT_EQ(b < a, K::less_reference(b, a)) << sa << " vs " << sb;
  }
}

TEST(Kmer, ExtractKmersCountsWindows) {
  std::vector<KmerT> kmers;
  ASSERT_TRUE(extract_kmers<KmerT::kMaxK>("ACGTACGT", 5, kmers));
  EXPECT_EQ(kmers.size(), 4u);
  EXPECT_EQ(kmers[0].to_string(), "ACGTA");
  EXPECT_EQ(kmers[3].to_string(), "TACGT");
  EXPECT_FALSE(extract_kmers<KmerT::kMaxK>("ACG", 5, kmers));
}

TEST(Kmer, ExtractKmersRestartsAfterInvalidBase) {
  std::vector<KmerT> kmers;
  // Each segment around the N is re-scanned instead of the read being
  // rejected outright.
  ASSERT_TRUE(extract_kmers<KmerT::kMaxK>("ACGTNACGT", 4, kmers));
  ASSERT_EQ(kmers.size(), 2u);
  EXPECT_EQ(kmers[0].to_string(), "ACGT");
  EXPECT_EQ(kmers[1].to_string(), "ACGT");
  // No segment long enough: nothing extracted.
  EXPECT_FALSE(extract_kmers<KmerT::kMaxK>("ACGTNACGT", 5, kmers));
  EXPECT_TRUE(kmers.empty());
  ASSERT_TRUE(extract_kmers<KmerT::kMaxK>("ACGTANTACGT", 5, kmers));
  ASSERT_EQ(kmers.size(), 2u);
  EXPECT_EQ(kmers[0].to_string(), "ACGTA");
  EXPECT_EQ(kmers[1].to_string(), "TACGT");
}

class KmerScannerParam : public ::testing::TestWithParam<int> {};

TEST_P(KmerScannerParam, MatchesNaiveExtraction) {
  const int k = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(k) * 31 + 1);
  const auto s = random_dna_string(200, rng);
  std::size_t pos = 0;
  for (KmerScanner<KmerT::kMaxK> it(s, k); !it.done(); it.next()) {
    ASSERT_EQ(it.position(), pos);
    const auto expect_fwd = KmerT::from_string(s.substr(pos, static_cast<std::size_t>(k)));
    EXPECT_EQ(it.forward(), expect_fwd);
    EXPECT_EQ(it.reverse(), expect_fwd.revcomp());
    EXPECT_EQ(it.canonical(), expect_fwd.canonical());
    ++pos;
  }
  EXPECT_EQ(pos, s.size() - static_cast<std::size_t>(k) + 1);
}

INSTANTIATE_TEST_SUITE_P(KRange, KmerScannerParam,
                         ::testing::Values(1, 2, 15, 31, 32, 33, 51, 63, 64));

TEST(KmerScanner, SkipsInvalidWindows) {
  // 'N' at index 5 invalidates windows overlapping it.
  const std::string s = "ACGTANGTACGT";
  std::vector<std::size_t> positions;
  for (KmerScanner<KmerT::kMaxK> it(s, 4); !it.done(); it.next())
    positions.push_back(it.position());
  // Valid 4-mer windows: starts 0..1 (before N) and 6..8 (after N).
  EXPECT_EQ(positions, (std::vector<std::size_t>{0, 1, 6, 7, 8}));
}

TEST(KmerScanner, EmptyAndShortSequences) {
  KmerScanner<KmerT::kMaxK> empty("", 5);
  EXPECT_TRUE(empty.done());
  KmerScanner<KmerT::kMaxK> tiny("ACG", 5);
  EXPECT_TRUE(tiny.done());
  KmerScanner<KmerT::kMaxK> exact("ACGTA", 5);
  EXPECT_FALSE(exact.done());
  exact.next();
  EXPECT_TRUE(exact.done());
}

TEST(KmerScanner, MixedQualitySimulatedReads) {
  // Simulated error-bearing reads with their low-quality calls masked to
  // 'N' (standard quality masking): the scanner must recover exactly the
  // k-mers of every maximal clean segment instead of dropping whole reads.
  sim::Genome genome;
  {
    std::mt19937_64 rng(4242);
    genome.primary = random_dna_string(4000, rng);
  }
  sim::LibraryConfig lib;
  lib.read_length = 80;
  lib.coverage = 4.0;
  lib.error_rate = 0.02;
  lib.seed = 99;
  auto reads = sim::simulate_library(genome, lib);
  ASSERT_FALSE(reads.empty());

  const int k = 21;
  std::size_t masked_reads = 0;
  std::size_t windows = 0;
  for (auto& read : reads) {
    for (std::size_t i = 0; i < read.seq.size(); ++i)
      if (phred(read.quals[i]) < 10) read.seq[i] = 'N';
    if (read.seq.find('N') != std::string::npos) ++masked_reads;

    // Naive per-window reference: validate and pack each window from
    // scratch.
    std::vector<std::pair<std::size_t, KmerT>> expect;
    for (std::size_t i = 0; i + static_cast<std::size_t>(k) <= read.seq.size();
         ++i) {
      const std::string_view window =
          std::string_view(read.seq).substr(i, static_cast<std::size_t>(k));
      if (!is_valid_dna(window)) continue;
      expect.emplace_back(i, KmerT::from_string(window).canonical());
    }
    std::vector<std::pair<std::size_t, KmerT>> got;
    for (KmerScanner<KmerT::kMaxK> it(read.seq, k); !it.done(); it.next())
      got.emplace_back(it.position(), it.canonical());
    ASSERT_EQ(got, expect) << read.seq;
    windows += got.size();
  }
  // The error model plus masking must actually have exercised the restart
  // path, and masked reads still contribute k-mers.
  EXPECT_GT(masked_reads, 0u);
  EXPECT_GT(windows, 0u);
}

TEST(KmerScanner, InnerLoopDoesNotAllocate) {
  std::mt19937_64 rng(31337);
  std::string s = random_dna_string(20'000, rng);
  for (std::size_t i = 997; i < s.size(); i += 997) s[i] = 'N';  // restarts too

  const std::size_t before = g_allocations.load();
  std::uint64_t h = 0;
  std::size_t count = 0;
  for (KmerScanner<KmerT::kMaxK> it(s, 31); !it.done(); it.next()) {
    h ^= it.canonical().hash();
    ++count;
  }
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after, before) << "scanner construction/iteration allocated";
  EXPECT_GT(count, 19'000u);
  EXPECT_NE(h, 0u);
}

TEST(Extensions, FlipSwapsAndComplements) {
  const ExtPair e{'A', 'G'};
  const ExtPair f = flip(e);
  EXPECT_EQ(f.left, 'C');
  EXPECT_EQ(f.right, 'T');
  EXPECT_EQ(flip(f), e);  // involution
  const ExtPair special{kExtFork, kExtNone};
  const ExtPair fs = flip(special);
  EXPECT_EQ(fs.left, kExtNone);
  EXPECT_EQ(fs.right, kExtFork);
}

TEST(Read, PhredConversions) {
  EXPECT_EQ(phred('!'), 0);
  EXPECT_EQ(phred('I'), 40);
  EXPECT_EQ(phred_to_char(40), 'I');
  EXPECT_EQ(phred(phred_to_char(17)), 17);
  EXPECT_EQ(phred_to_char(-5), '!');   // clamped
  EXPECT_EQ(phred_to_char(100), phred_to_char(60));
}

}  // namespace
}  // namespace hipmer::seq
