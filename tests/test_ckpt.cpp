// Checkpoint/restart subsystem: manifest + shard integrity, artifact
// round-trips, resharding, and end-to-end kill-and-resume through the
// pipeline with fault injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "ckpt/artifacts.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/snapshot_store.hpp"
#include "io/wire.hpp"
#include "pgas/fault.hpp"
#include "pipeline/pipeline.hpp"
#include "seq/dna.hpp"
#include "seq/read_name.hpp"
#include "sim/datasets.hpp"
#include "util/hash.hpp"

namespace hipmer {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("hipmer_" + tag + "_" +
                    std::to_string(std::random_device{}()));
  fs::create_directories(dir);
  return dir;
}

std::vector<std::byte> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  std::transform(raw.begin(), raw.end(), bytes.begin(),
                 [](char c) { return static_cast<std::byte>(c); });
  return bytes;
}

void spit(const fs::path& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<seq::PackedReads> pack(
    const std::vector<std::vector<seq::Read>>& libs) {
  std::vector<seq::PackedReads> packed(libs.size());
  for (std::size_t lib = 0; lib < libs.size(); ++lib)
    for (const auto& read : libs[lib]) packed[lib].append(read);
  return packed;
}

/// The retired "RDS1" string reads shard, byte for byte as earlier releases
/// wrote it: magic, u32 nlibs, then per library a u64 count and that many
/// length-prefixed (name, seq, quals) records.
std::vector<std::byte> encode_rds1_reads_shard(
    const std::vector<std::vector<seq::Read>>& libs) {
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  w.put_u32(0x31534452);  // "RDS1"
  w.put_u32(static_cast<std::uint32_t>(libs.size()));
  for (const auto& reads : libs) {
    w.put_u64(reads.size());
    for (const auto& read : reads) io::wire::put_read(w, read);
  }
  return buf;
}

// ---- CRC-32C ----

TEST(Crc32, KnownAnswerAndIncremental) {
  const char* check = "123456789";
  EXPECT_EQ(util::crc32c(check, 9), 0xE3069283u);
  util::Crc32 crc;
  crc.update(check, 4);
  crc.update(check + 4, 5);
  EXPECT_EQ(crc.value(), 0xE3069283u);
  EXPECT_EQ(util::crc32c(nullptr, 0), 0u);
}

/// Bit-at-a-time CRC-32C over the raw state: the definition the table and
/// hardware paths must both reproduce.
std::uint32_t crc32c_bitwise(std::uint32_t crc, const unsigned char* p,
                             std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78U : crc >> 1;
  }
  return crc;
}

using CrcUpdate = std::uint32_t (*)(std::uint32_t, const unsigned char*,
                                    std::size_t);

/// `update` against `reference`: the check value, every length 0-1024 at
/// every start offset 0-7 of pseudo-random bytes, and every split of one
/// buffer into two incremental calls.
void expect_crc_path_matches(CrcUpdate update, CrcUpdate reference) {
  const auto* check = reinterpret_cast<const unsigned char*>("123456789");
  EXPECT_EQ(~update(0xffffffffU, check, 9), 0xE3069283u);
  std::mt19937 rng(0xc5c5);
  std::vector<unsigned char> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 1024; ++len)
      ASSERT_EQ(update(0xffffffffU, buf.data() + offset, len),
                reference(0xffffffffU, buf.data() + offset, len))
          << "offset " << offset << " length " << len;
  const std::size_t len = 300;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = buf.data() + offset;
    const std::uint32_t whole = reference(0xffffffffU, p, len);
    for (std::size_t split = 0; split <= len; ++split)
      ASSERT_EQ(update(update(0xffffffffU, p, split), p + split, len - split),
                whole)
          << "offset " << offset << " split " << split;
  }
}

TEST(Crc32, TablePathMatchesBitwiseDefinition) {
  expect_crc_path_matches(util::detail::crc32c_update_table, crc32c_bitwise);
}

TEST(Crc32, HardwarePathMatchesTablePath) {
#if defined(__x86_64__)
  if (!util::detail::have_sse42()) GTEST_SKIP() << "CPU lacks SSE4.2";
  expect_crc_path_matches(util::detail::crc32c_update_sse42,
                          util::detail::crc32c_update_table);
#else
  GTEST_SKIP() << "hardware CRC-32C is x86-64 only";
#endif
}

// ---- Manifest ----

ckpt::Manifest sample_manifest() {
  ckpt::Manifest m;
  ckpt::StageEntry reads;
  reads.stage = ckpt::kStageReads;
  reads.seq = 1;
  reads.fingerprint = 0xfeedfacecafef00dull;
  reads.shard_count = 3;
  reads.shard_bytes = {100, 0, 250};
  reads.shard_crcs = {0xdeadbeef, 0, 0x12345678};
  reads.aux.distinct_kmers = 42;
  reads.aux.singleton_fraction = 0.125;
  m.entries.push_back(reads);
  ckpt::StageEntry scaf;
  scaf.stage = ckpt::stage_scaffolds(1);
  scaf.seq = 7;
  scaf.fingerprint = 0xfeedfacecafef00dull;
  scaf.shard_count = 1;
  scaf.shard_bytes = {9999};
  scaf.shard_crcs = {0xcafebabe};
  scaf.aux.num_contigs = 17;
  scaf.aux.contig_stats.n50 = 1234;
  m.entries.push_back(scaf);
  return m;
}

TEST(Manifest, RoundTrip) {
  const auto m = sample_manifest();
  const auto bytes = ckpt::encode_manifest(m);
  const auto back = ckpt::decode_manifest(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->entries.size(), 2u);
  EXPECT_EQ(back->entries[0].stage, ckpt::kStageReads);
  EXPECT_EQ(back->entries[0].shard_bytes, m.entries[0].shard_bytes);
  EXPECT_EQ(back->entries[0].shard_crcs, m.entries[0].shard_crcs);
  EXPECT_EQ(back->entries[0].aux.distinct_kmers, 42u);
  EXPECT_DOUBLE_EQ(back->entries[0].aux.singleton_fraction, 0.125);
  EXPECT_EQ(back->entries[1].stage, "scaffolds.1");
  EXPECT_EQ(back->entries[1].seq, 7u);
  EXPECT_EQ(back->entries[1].aux.contig_stats.n50, 1234u);
  EXPECT_EQ(back->next_seq(), 8u);
  EXPECT_EQ(back->latest(ckpt::kStageReads)->seq, 1u);
  EXPECT_EQ(back->latest("nope"), nullptr);
}

TEST(Manifest, EveryByteFlipIsDetected) {
  const auto bytes = ckpt::encode_manifest(sample_manifest());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupt = bytes;
    corrupt[i] ^= std::byte{0x01};
    EXPECT_FALSE(ckpt::decode_manifest(corrupt).has_value()) << "offset " << i;
  }
}

TEST(Manifest, EveryTruncationIsDetected) {
  const auto bytes = ckpt::encode_manifest(sample_manifest());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::byte> prefix(bytes.begin(),
                                        bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(ckpt::decode_manifest(prefix).has_value()) << "len " << len;
  }
}

TEST(Manifest, EntryCountBeyondBytesIsRejected) {
  // A CRC-valid manifest whose entry count cannot fit in the bytes left is
  // rejected before the count sizes an allocation.
  std::vector<std::byte> bytes;
  io::wire::Writer w(bytes);
  w.put_u32(ckpt::kManifestMagic);
  w.put_u32(ckpt::kManifestVersion);
  w.put_u32(0xFFFFFFFFu);
  w.put_u32(0);
  w.put_u32(util::crc32c(bytes.data(), bytes.size()));
  EXPECT_FALSE(ckpt::decode_manifest(bytes).has_value());
}

TEST(Manifest, StageProgressOrdering) {
  using namespace ckpt;
  EXPECT_EQ(stage_progress(kStageReads), kProgressReads);
  EXPECT_EQ(stage_progress(kStageUfx), kProgressUfx);
  EXPECT_EQ(stage_progress(kStageContigs), kProgressContigs);
  EXPECT_EQ(stage_progress(stage_alignments(0)), progress_alignments(0));
  EXPECT_EQ(stage_progress(stage_scaffolds(2)), progress_scaffolds(2));
  EXPECT_LT(kProgressContigs, progress_alignments(0));
  EXPECT_LT(progress_alignments(0), progress_scaffolds(0));
  EXPECT_LT(progress_scaffolds(0), progress_alignments(1));
  EXPECT_EQ(stage_progress("bogus"), -1);
  EXPECT_EQ(stage_progress("alignments.x"), -1);
  EXPECT_EQ(progress_round(progress_alignments(3)), 3);
  EXPECT_EQ(progress_round(progress_scaffolds(3)), 3);
}

// ---- SnapshotStore ----

TEST(SnapshotStore, ShardFlipAndTruncationDetected) {
  const auto dir = fresh_dir("store");
  ckpt::SnapshotStore store(dir.string());

  ckpt::StageEntry entry;
  entry.stage = ckpt::kStageUfx;
  entry.seq = 3;
  entry.shard_count = 1;
  std::vector<std::byte> payload(57);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i * 11 + 1);
  entry.shard_bytes = {payload.size()};
  entry.shard_crcs = {util::crc32c(payload.data(), payload.size())};

  ASSERT_TRUE(store.prepare_entry(entry));
  ASSERT_TRUE(store.write_shard(entry, 0, payload));
  const auto back = store.read_shard(entry, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  // No stray temp files after the atomic rename.
  for (const auto& f : fs::recursive_directory_iterator(dir))
    EXPECT_NE(f.path().extension(), ".tmp") << f.path();

  const auto shard_file = store.shard_path(entry, 0);
  const auto original = slurp(shard_file);
  ASSERT_EQ(original.size(), payload.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    auto corrupt = original;
    corrupt[i] ^= std::byte{0x80};
    spit(shard_file, corrupt);
    EXPECT_FALSE(store.read_shard(entry, 0).has_value()) << "flip at " << i;
  }
  for (std::size_t len = 0; len < original.size(); ++len) {
    const std::vector<std::byte> prefix(
        original.begin(), original.begin() + static_cast<long>(len));
    spit(shard_file, prefix);
    EXPECT_FALSE(store.read_shard(entry, 0).has_value()) << "trunc " << len;
  }
  spit(shard_file, original);
  EXPECT_TRUE(store.read_shard(entry, 0).has_value());
  fs::remove_all(dir);
}

TEST(SnapshotStore, ManifestPersistsAtomically) {
  const auto dir = fresh_dir("mstore");
  ckpt::SnapshotStore store(dir.string());
  EXPECT_FALSE(store.load_manifest().has_value());
  ASSERT_TRUE(store.write_manifest(sample_manifest()));
  const auto back = store.load_manifest();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->entries.size(), 2u);
  EXPECT_FALSE(fs::exists(dir / "manifest.bin.tmp"));
  fs::remove_all(dir);
}

// ---- Artifact payloads ----

template <typename Decoder>
void expect_truncations_rejected(const std::vector<std::byte>& bytes,
                                 Decoder decode) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::byte> prefix(bytes.begin(),
                                        bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(decode(prefix).has_value()) << "len " << len;
  }
  EXPECT_TRUE(decode(bytes).has_value());
}

TEST(Artifacts, ReadsRoundTripAndTruncation) {
  std::vector<std::vector<seq::Read>> libs(2);
  libs[0].push_back(seq::Read{"lib0:0/0", "ACGT", "IIII"});
  libs[0].push_back(seq::Read{"lib0:0/1", "TTTT", "IIII"});
  libs[1].push_back(seq::Read{"weird name \t\n", "N", ""});
  const auto bytes = ckpt::encode_packed_reads_shard(pack(libs));
  const auto back = ckpt::decode_reads_shard(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, libs);
  expect_truncations_rejected(bytes, ckpt::decode_reads_shard);
  EXPECT_FALSE(ckpt::decode_ufx_shard(bytes).has_value());  // wrong magic
  // The retired string shard is well-formed but no longer decodable.
  EXPECT_FALSE(
      ckpt::decode_reads_shard(encode_rds1_reads_shard(libs)).has_value());
}

TEST(Artifacts, ReshardReadsPreservesPairsAndIsIdentityForSameTeam) {
  // 4 writer shards, paired reads dealt (i/2) % 4 like the pipeline does.
  const int writers = 4;
  std::vector<std::vector<std::vector<seq::Read>>> shards(
      writers, std::vector<std::vector<seq::Read>>(1));
  std::vector<std::string> all_names;
  for (int pair = 0; pair < 23; ++pair) {
    for (int mate = 0; mate < 2; ++mate) {
      seq::Read r;
      r.name = "lib:" + std::to_string(pair) + "/" + std::to_string(mate);
      r.seq = std::string(8, "ACGT"[pair % 4]);
      all_names.push_back(r.name);
      shards[pair % writers][0].push_back(std::move(r));
    }
  }
  // Same team size: identity.
  EXPECT_EQ(ckpt::reshard_reads(shards, writers), shards);

  const auto resharded = ckpt::reshard_reads(shards, 3);
  ASSERT_EQ(resharded.size(), 3u);
  std::vector<std::string> seen;
  for (std::size_t rank = 0; rank < resharded.size(); ++rank) {
    ASSERT_EQ(resharded[rank].size(), 1u);
    const auto& reads = resharded[rank][0];
    ASSERT_EQ(reads.size() % 2, 0u);  // pairs stay together
    for (std::size_t i = 0; i + 1 < reads.size(); i += 2) {
      // Mates remain adjacent and ordered.
      std::uint64_t pair0 = 0, pair1 = 0;
      int mate0 = 0, mate1 = 0;
      ASSERT_TRUE(seq::parse_read_name(reads[i].name, pair0, mate0));
      ASSERT_TRUE(seq::parse_read_name(reads[i + 1].name, pair1, mate1));
      EXPECT_EQ(pair0, pair1);
      EXPECT_EQ(mate0, 0);
      EXPECT_EQ(mate1, 1);
      // Named pairs land on pair % p, colocated with resharded alignments.
      EXPECT_EQ(pair0 % 3, rank);
    }
    for (const auto& r : reads) seen.push_back(r.name);
  }
  std::sort(seen.begin(), seen.end());
  std::sort(all_names.begin(), all_names.end());
  EXPECT_EQ(seen, all_names);
}

TEST(Artifacts, UfxRoundTripAndTruncation) {
  std::vector<kcount::UfxRecord> records;
  for (int i = 0; i < 5; ++i) {
    kcount::KmerSummary s;
    s.depth = static_cast<std::uint32_t>(10 + i);
    s.left_ext = "ACGTF"[i];
    s.right_ext = "TGCAX"[i];
    records.emplace_back(
        seq::KmerT::from_string(std::string(21, "ACGT"[i % 4])), s);
  }
  const auto bytes = ckpt::encode_ufx_shard(records);
  const auto back = ckpt::decode_ufx_shard(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*back)[i].first, records[i].first);
    EXPECT_EQ((*back)[i].second.depth, records[i].second.depth);
    EXPECT_EQ((*back)[i].second.left_ext, records[i].second.left_ext);
    EXPECT_EQ((*back)[i].second.right_ext, records[i].second.right_ext);
  }
  expect_truncations_rejected(bytes, ckpt::decode_ufx_shard);
}

TEST(Artifacts, ContigsRoundTripAndTruncation) {
  std::vector<dbg::Contig> contigs(3);
  contigs[0].id = 5;
  contigs[0].seq = "ACGTACGTACGT";
  contigs[0].avg_depth = 12.5;
  contigs[1].id = 9;
  contigs[1].seq = "TTTT";
  contigs[2].id = 1;
  contigs[2].seq = "GGGGGGG";
  std::vector<const dbg::Contig*> ptrs;
  for (const auto& c : contigs) ptrs.push_back(&c);
  const auto bytes = ckpt::encode_contigs_shard(ptrs);
  const auto back = ckpt::decode_contigs_shard(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 3u);
  EXPECT_EQ((*back)[0].id, 5u);
  EXPECT_EQ((*back)[0].seq, "ACGTACGTACGT");
  EXPECT_DOUBLE_EQ((*back)[0].avg_depth, 12.5);
  expect_truncations_rejected(bytes, ckpt::decode_contigs_shard);
}

TEST(Artifacts, AlignmentsRoundTripReshardAndTruncation) {
  std::vector<std::vector<align::ReadAlignment>> shards(4);
  for (int i = 0; i < 17; ++i) {
    align::ReadAlignment a{};
    a.pair_id = static_cast<std::uint64_t>(i);
    a.mate = i % 2;
    a.library = 0;
    a.contig_id = static_cast<std::uint32_t>(100 + i);
    a.score = i;
    shards[(i / 2) % 4].push_back(a);
  }
  const auto bytes = ckpt::encode_alignments_shard(shards[0]);
  const auto back = ckpt::decode_alignments_shard(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), shards[0].size());
  EXPECT_EQ((*back)[0].contig_id, shards[0][0].contig_id);
  expect_truncations_rejected(bytes, ckpt::decode_alignments_shard);

  const auto same = ckpt::reshard_alignments(shards, 4);
  ASSERT_EQ(same.size(), shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s)
    EXPECT_EQ(ckpt::encode_alignments_shard(same[s]),
              ckpt::encode_alignments_shard(shards[s]));
  const auto resharded = ckpt::reshard_alignments(shards, 3);
  ASSERT_EQ(resharded.size(), 3u);
  std::size_t total = 0;
  for (std::size_t r = 0; r < resharded.size(); ++r) {
    for (const auto& a : resharded[r])
      EXPECT_EQ(a.pair_id % 3, r);  // pair_id % p owner, same as reads
    total += resharded[r].size();
  }
  EXPECT_EQ(total, 17u);
}

TEST(Artifacts, ScaffoldShardsRoundTripMergeAndTruncation) {
  std::vector<io::FastaRecord> records;
  for (int i = 0; i < 7; ++i)
    records.push_back(io::FastaRecord{"scaffold_" + std::to_string(i),
                                      std::string(10 + i, 'A')});
  ckpt::ScaffoldExtras extras;
  extras.closure_stats.gaps_total = 11;
  extras.inserts.push_back(scaffold::InsertSizeEstimate{210.0, 15.0, 99});

  std::vector<ckpt::ScaffoldShard> shards;
  std::vector<std::byte> shard0_bytes;
  for (int s = 0; s < 3; ++s) {
    const auto bytes = ckpt::encode_scaffolds_shard(
        records, s, 3, s == 0 ? &extras : nullptr);
    if (s == 0) shard0_bytes = bytes;
    auto decoded = ckpt::decode_scaffolds_shard(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->extras.has_value(), s == 0);
    shards.push_back(std::move(*decoded));
  }
  EXPECT_EQ(shards[0].extras->closure_stats.gaps_total, 11u);
  ASSERT_EQ(shards[0].extras->inserts.size(), 1u);
  EXPECT_DOUBLE_EQ(shards[0].extras->inserts[0].mean, 210.0);
  const auto merged = ckpt::merge_scaffold_shards(std::move(shards));
  ASSERT_EQ(merged.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(merged[i].name, records[i].name);
    EXPECT_EQ(merged[i].seq, records[i].seq);
  }
  expect_truncations_rejected(shard0_bytes, ckpt::decode_scaffolds_shard);
}

// ---- End-to-end kill-and-resume ----

pipeline::PipelineConfig ckpt_config(const fs::path& dir, int rounds = 1) {
  pipeline::PipelineConfig cfg;
  cfg.k = 25;
  cfg.kmer.min_count = 3;
  cfg.scaffolding_rounds = rounds;
  cfg.checkpoint.dir = dir.string();
  cfg.sync_k();
  return cfg;
}

void expect_same_scaffolds(const std::vector<io::FastaRecord>& expected,
                           const std::vector<io::FastaRecord>& actual,
                           const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].name, actual[i].name) << label << " record " << i;
    EXPECT_EQ(expected[i].seq, actual[i].seq) << label << " record " << i;
  }
}

std::vector<std::string> canon(const std::vector<io::FastaRecord>& records) {
  std::vector<std::string> seqs;
  for (const auto& r : records)
    seqs.push_back(std::min(r.seq, seq::revcomp(r.seq)));
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

TEST(Checkpoint, KillAndResumeEveryStageByteIdentical) {
  auto ds = sim::make_human_like(20000, 4242, 15.0);

  // Uninterrupted, checkpoint-free reference run.
  pipeline::PipelineConfig plain = ckpt_config("");
  plain.checkpoint.dir.clear();
  pipeline::Pipeline reference(pgas::Topology{4, 2}, plain);
  const auto expected = reference.run(ds.reads, ds.libraries);
  ASSERT_FALSE(expected.scaffolds.empty());

  struct Kill {
    const char* stage;
    int occurrence;
    int step;
    const char* what;
  };
  const Kill kills[] = {
      // "checkpoint" occurrence 0 is the reads snapshot: nothing committed
      // yet, resume must recompute from scratch.
      {pipeline::kStageCheckpoint, 0, 0, "during reads snapshot"},
      {pipeline::kStageKmerAnalysis, 0, 0, "kmer analysis boundary"},
      {pipeline::kStageKmerAnalysis, 0, 2, "mid kmer analysis"},
      {pipeline::kStageContigGen, 0, 0, "contig generation boundary"},
      {pipeline::kStageAligner, 0, 0, "aligner boundary"},
      // rest_scaffolding occurrences: 0 = store+depths+bubbles, 1 = merged
      // store build, 2 = links/ordering, 3 = sequence build.
      {pipeline::kStageScaffoldRest, 2, 0, "links/ordering boundary"},
      {pipeline::kStageGapClosing, 0, 0, "gap closing boundary"},
      // "checkpoint" occurrence 4 is the scaffolds.0 snapshot: commit must
      // not happen, resume recomputes the round from alignments.0.
      {pipeline::kStageCheckpoint, 4, 0, "during scaffolds snapshot"},
  };

  for (const auto& kill : kills) {
    SCOPED_TRACE(kill.what);
    const auto dir = fresh_dir("kill");
    const auto cfg = ckpt_config(dir);
    {
      pipeline::Pipeline victim(pgas::Topology{4, 2}, cfg);
      victim.team().faults().set_plan(
          pgas::FaultPlan{2, kill.stage, kill.occurrence, kill.step});
      EXPECT_THROW((void)victim.run(ds.reads, ds.libraries), pgas::RankKilled);
      EXPECT_TRUE(victim.team().faults().fired());
    }
    pipeline::Pipeline recovery(pgas::Topology{4, 2}, cfg);
    const auto resumed = recovery.resume(ds.reads, ds.libraries);
    expect_same_scaffolds(expected.scaffolds, resumed.scaffolds, kill.what);
    EXPECT_EQ(resumed.distinct_kmers, expected.distinct_kmers) << kill.what;
    EXPECT_EQ(resumed.num_contigs, expected.num_contigs) << kill.what;
    EXPECT_EQ(resumed.contig_stats.n50, expected.contig_stats.n50) << kill.what;
    fs::remove_all(dir);
  }
}

TEST(Checkpoint, AutoMinCountKilledAfterKmerAnalysisResumesIdentically) {
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  pipeline::PipelineConfig plain = ckpt_config("");
  plain.checkpoint.dir.clear();
  plain.kmer.min_count = 0;  // resolved from the histogram valley
  pipeline::Pipeline reference(pgas::Topology{4, 2}, plain);
  const auto expected = reference.run(ds.reads, ds.libraries);
  ASSERT_FALSE(expected.scaffolds.empty());
  EXPECT_GE(expected.min_count, 2u);

  const auto dir = fresh_dir("autokill");
  auto cfg = ckpt_config(dir);
  cfg.kmer.min_count = 0;
  {
    pipeline::Pipeline victim(pgas::Topology{4, 2}, cfg);
    victim.team().faults().set_plan(
        pgas::FaultPlan{2, pipeline::kStageContigGen, 0, 0});
    EXPECT_THROW((void)victim.run(ds.reads, ds.libraries), pgas::RankKilled);
    EXPECT_TRUE(victim.team().faults().fired());
  }
  pipeline::Pipeline recovery(pgas::Topology{4, 2}, cfg);
  const auto resumed = recovery.resume(ds.reads, ds.libraries);
  expect_same_scaffolds(expected.scaffolds, resumed.scaffolds, "auto resume");
  EXPECT_EQ(resumed.distinct_kmers, expected.distinct_kmers);
  // The UFX came back from the snapshot: the stage did not rerun.
  EXPECT_EQ(resumed.min_count, 0u);
  fs::remove_all(dir);
}

TEST(Checkpoint, ResumeOnDifferentTeamSize) {
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  pipeline::PipelineConfig plain = ckpt_config("");
  plain.checkpoint.dir.clear();
  pipeline::Pipeline reference(pgas::Topology{4, 2}, plain);
  const auto expected = reference.run(ds.reads, ds.libraries);

  const auto dir = fresh_dir("xteam");
  const auto cfg = ckpt_config(dir);
  {
    pipeline::Pipeline victim(pgas::Topology{4, 2}, cfg);
    victim.team().faults().set_plan(
        pgas::FaultPlan{1, pipeline::kStageAligner, 0, 0});
    EXPECT_THROW((void)victim.run(ds.reads, ds.libraries), pgas::RankKilled);
  }
  // Resume on 3 ranks: snapshots written by 4 ranks are re-sharded.
  pipeline::Pipeline recovery(pgas::Topology{3, 2}, cfg);
  const auto resumed = recovery.resume(ds.reads, ds.libraries);
  EXPECT_EQ(canon(expected.scaffolds), canon(resumed.scaffolds));
  EXPECT_EQ(resumed.num_contigs, expected.num_contigs);
  fs::remove_all(dir);
}

TEST(Checkpoint, KillInSecondRoundResumesFromFirstRoundScaffolds) {
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  pipeline::PipelineConfig plain = ckpt_config("", 2);
  plain.checkpoint.dir.clear();
  pipeline::Pipeline reference(pgas::Topology{4, 2}, plain);
  const auto expected = reference.run(ds.reads, ds.libraries);

  const auto dir = fresh_dir("round2");
  const auto cfg = ckpt_config(dir, 2);
  {
    pipeline::Pipeline victim(pgas::Topology{4, 2}, cfg);
    // Second execution of the aligner = round 1.
    victim.team().faults().set_plan(
        pgas::FaultPlan{0, pipeline::kStageAligner, 1, 0});
    EXPECT_THROW((void)victim.run(ds.reads, ds.libraries), pgas::RankKilled);
  }
  pipeline::Pipeline recovery(pgas::Topology{4, 2}, cfg);
  const auto resumed = recovery.resume(ds.reads, ds.libraries);
  expect_same_scaffolds(expected.scaffolds, resumed.scaffolds, "round 1 kill");
  // The resumed run must not redo round 0's aligner: exactly one aligner
  // stage (round 1's) in its report.
  int aligner_stages = 0;
  for (const auto& s : resumed.stages)
    aligner_stages += s.name == pipeline::kStageAligner;
  EXPECT_EQ(aligner_stages, 1);
  fs::remove_all(dir);
}

TEST(Checkpoint, KillDuringRestoreThenResumeAgain) {
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  const auto dir = fresh_dir("restore");
  const auto cfg = ckpt_config(dir);
  pipeline::Pipeline writer(pgas::Topology{4, 2}, cfg);
  const auto expected = writer.run(ds.reads, ds.libraries);

  {
    pipeline::Pipeline victim(pgas::Topology{4, 2}, cfg);
    victim.team().faults().set_plan(
        pgas::FaultPlan{3, pipeline::kStageRestore, 0, 0});
    EXPECT_THROW((void)victim.resume(ds.reads, ds.libraries),
                 pgas::RankKilled);
  }
  pipeline::Pipeline recovery(pgas::Topology{4, 2}, cfg);
  const auto resumed = recovery.resume(ds.reads, ds.libraries);
  expect_same_scaffolds(expected.scaffolds, resumed.scaffolds, "post-restore");
  fs::remove_all(dir);
}

/// Rewrite every shard of the newest reads snapshot in the retired "RDS1"
/// string format and re-seal the manifest, so each shard passes its CRC
/// check and only the decoder can reject it.
void rewrite_reads_snapshot_as_rds1(const fs::path& dir) {
  ckpt::SnapshotStore store(dir.string());
  auto manifest = store.load_manifest();
  ASSERT_TRUE(manifest.has_value());
  ckpt::StageEntry* reads = nullptr;
  for (auto& e : manifest->entries)
    if (e.stage == ckpt::kStageReads &&
        (reads == nullptr || e.seq > reads->seq))
      reads = &e;
  ASSERT_NE(reads, nullptr);
  for (std::uint32_t s = 0; s < reads->shard_count; ++s) {
    const auto payload = store.read_shard(*reads, s);
    ASSERT_TRUE(payload.has_value());
    const auto libs = ckpt::decode_reads_shard(*payload);
    ASSERT_TRUE(libs.has_value());
    const auto rds1 = encode_rds1_reads_shard(*libs);
    spit(store.shard_path(*reads, s), rds1);
    reads->shard_bytes[s] = rds1.size();
    reads->shard_crcs[s] = util::crc32c(rds1.data(), rds1.size());
    ASSERT_TRUE(store.read_shard(*reads, s).has_value());
  }
  ASSERT_TRUE(store.write_manifest(*manifest));
}

TEST(Checkpoint, CorruptShardFallsBackToEarlierStage) {
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  // A flipped byte in the newest scaffolds shard fails its CRC, so resume
  // falls back to the round's alignments, which also load the reads. Run
  // once with the reads snapshot intact, and once with it rewritten
  // CRC-valid in the retired "RDS1" format: that one fails to decode, and
  // since every later stage depends on it, the run recomputes from scratch.
  for (const bool retired_reads : {false, true}) {
    const auto dir = fresh_dir("corrupt");
    const auto cfg = ckpt_config(dir);
    pipeline::Pipeline writer(pgas::Topology{4, 2}, cfg);
    const auto expected = writer.run(ds.reads, ds.libraries);

    fs::path victim_shard;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (!e.is_directory()) continue;
      if (e.path().filename().string().rfind("scaffolds.0.", 0) == 0)
        victim_shard = e.path() / "shard.1";
    }
    ASSERT_FALSE(victim_shard.empty());
    auto bytes = slurp(victim_shard);
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= std::byte{0x40};
    spit(victim_shard, bytes);
    if (retired_reads) {
      ASSERT_NO_FATAL_FAILURE(rewrite_reads_snapshot_as_rds1(dir));
    }

    pipeline::Pipeline recovery(pgas::Topology{4, 2}, cfg);
    const auto resumed = recovery.resume(ds.reads, ds.libraries);
    const char* what = retired_reads ? "RDS1 reads" : "corrupt shard";
    expect_same_scaffolds(expected.scaffolds, resumed.scaffolds, what);
    EXPECT_EQ(resumed.wall_for(pipeline::kStageKmerAnalysis) > 0.0,
              retired_reads)
        << what;
    fs::remove_all(dir);
  }
}

TEST(Checkpoint, CorruptManifestRecomputesFromScratch) {
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  const auto dir = fresh_dir("badmanifest");
  const auto cfg = ckpt_config(dir);
  pipeline::Pipeline writer(pgas::Topology{4, 2}, cfg);
  const auto expected = writer.run(ds.reads, ds.libraries);

  const auto manifest_file = dir / "manifest.bin";
  auto bytes = slurp(manifest_file);
  ASSERT_FALSE(bytes.empty());
  bytes[3] ^= std::byte{0x01};
  spit(manifest_file, bytes);

  pipeline::Pipeline recovery(pgas::Topology{4, 2}, cfg);
  const auto resumed = recovery.resume(ds.reads, ds.libraries);
  expect_same_scaffolds(expected.scaffolds, resumed.scaffolds,
                        "corrupt manifest");
  // Nothing was resumable, so k-mer analysis must have run again.
  EXPECT_GT(resumed.wall_for(pipeline::kStageKmerAnalysis), 0.0);
  fs::remove_all(dir);
}

TEST(Checkpoint, FingerprintMismatchIgnoresForeignSnapshots) {
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  const auto dir = fresh_dir("fprint");
  {
    pipeline::Pipeline writer(pgas::Topology{4, 2}, ckpt_config(dir));
    (void)writer.run(ds.reads, ds.libraries);
  }
  auto other = ckpt_config(dir);
  other.k = 27;
  other.sync_k();
  pipeline::Pipeline recovery(pgas::Topology{4, 2}, other);
  const auto resumed = recovery.resume(ds.reads, ds.libraries);
  // k=27 run cannot reuse k=25 snapshots: full recompute.
  EXPECT_GT(resumed.wall_for(pipeline::kStageKmerAnalysis), 0.0);
  ASSERT_FALSE(resumed.scaffolds.empty());
  fs::remove_all(dir);
}

TEST(Checkpoint, KeepLastPrunesButResumeStillWorks) {
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  const auto dir = fresh_dir("prune");
  auto cfg = ckpt_config(dir);
  cfg.checkpoint.keep_last = 2;
  pipeline::Pipeline writer(pgas::Topology{4, 2}, cfg);
  const auto expected = writer.run(ds.reads, ds.libraries);

  std::size_t entry_dirs = 0;
  for (const auto& e : fs::directory_iterator(dir))
    entry_dirs += e.is_directory();
  // Five snapshots were taken; pruning keeps the newest two plus the
  // newest entry's dependency closure.
  EXPECT_LE(entry_dirs, 3u);

  pipeline::Pipeline recovery(pgas::Topology{4, 2}, cfg);
  const auto resumed = recovery.resume(ds.reads, ds.libraries);
  expect_same_scaffolds(expected.scaffolds, resumed.scaffolds, "pruned");
  fs::remove_all(dir);
}

TEST(Checkpoint, KeepLastIsPerFingerprintGroup) {
  // Two configs with different fingerprints share one checkpoint
  // directory — the served-job pattern when two jobs land in the same
  // tenant dir. keep-last pruning must apply per fingerprint group: a
  // global newest-N sweep would let each job's snapshots evict the
  // other's.
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  const auto dir = fresh_dir("prune_groups");
  auto cfg_a = ckpt_config(dir);
  cfg_a.checkpoint.keep_last = 1;
  auto cfg_b = cfg_a;
  cfg_b.kmer.min_count = 2;  // different fingerprint
  cfg_b.sync_k();

  // Interleave the two jobs twice; every snapshot commit re-runs prune.
  pipeline::Pipeline job_a(pgas::Topology{4, 2}, cfg_a);
  const auto expected_a = job_a.run(ds.reads, ds.libraries);
  pipeline::Pipeline job_b(pgas::Topology{4, 2}, cfg_b);
  const auto expected_b = job_b.run(ds.reads, ds.libraries);
  pipeline::Pipeline again_a(pgas::Topology{4, 2}, cfg_a);
  (void)again_a.run(ds.reads, ds.libraries);
  pipeline::Pipeline again_b(pgas::Topology{4, 2}, cfg_b);
  (void)again_b.run(ds.reads, ds.libraries);

  // Both groups survived the interleaved pruning: each config resumes
  // from its own snapshots without recomputing k-mer analysis.
  pipeline::Pipeline resume_a(pgas::Topology{4, 2}, cfg_a);
  const auto resumed_a = resume_a.resume(ds.reads, ds.libraries);
  expect_same_scaffolds(expected_a.scaffolds, resumed_a.scaffolds, "group a");
  EXPECT_EQ(resumed_a.wall_for(pipeline::kStageKmerAnalysis), 0.0);
  pipeline::Pipeline resume_b(pgas::Topology{4, 2}, cfg_b);
  const auto resumed_b = resume_b.resume(ds.reads, ds.libraries);
  expect_same_scaffolds(expected_b.scaffolds, resumed_b.scaffolds, "group b");
  EXPECT_EQ(resumed_b.wall_for(pipeline::kStageKmerAnalysis), 0.0);

  // The quota still bites within each group: far fewer entry dirs than
  // the 20 snapshots the four runs committed.
  std::size_t entry_dirs = 0;
  for (const auto& e : fs::directory_iterator(dir))
    entry_dirs += e.is_directory();
  EXPECT_LE(entry_dirs, 8u);
  fs::remove_all(dir);
}

TEST(Checkpoint, SeparateDirsNeverCrossPrune) {
  // Two interleaved jobs with distinct checkpoint dirs (distinct tenants
  // in server terms): aggressive keep-last in one dir must not disturb
  // the other's ability to resume.
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  const auto dir_a = fresh_dir("tenant_a");
  const auto dir_b = fresh_dir("tenant_b");
  auto cfg_a = ckpt_config(dir_a);
  cfg_a.checkpoint.keep_last = 1;
  auto cfg_b = ckpt_config(dir_b);
  cfg_b.checkpoint.keep_last = 1;

  pipeline::Pipeline job_a(pgas::Topology{4, 2}, cfg_a);
  const auto expected_a = job_a.run(ds.reads, ds.libraries);
  pipeline::Pipeline job_b(pgas::Topology{4, 2}, cfg_b);
  const auto expected_b = job_b.run(ds.reads, ds.libraries);

  pipeline::Pipeline resume_a(pgas::Topology{4, 2}, cfg_a);
  expect_same_scaffolds(expected_a.scaffolds,
                        resume_a.resume(ds.reads, ds.libraries).scaffolds,
                        "tenant a");
  pipeline::Pipeline resume_b(pgas::Topology{4, 2}, cfg_b);
  expect_same_scaffolds(expected_b.scaffolds,
                        resume_b.resume(ds.reads, ds.libraries).scaffolds,
                        "tenant b");
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(Checkpoint, ResumeWithoutAnyCheckpointRunsFromScratch) {
  auto ds = sim::make_human_like(20000, 4242, 15.0);
  const auto dir = fresh_dir("empty");
  pipeline::Pipeline pipe(pgas::Topology{4, 2}, ckpt_config(dir));
  const auto result = pipe.resume(ds.reads, ds.libraries);
  ASSERT_FALSE(result.scaffolds.empty());
  EXPECT_GT(result.wall_for(pipeline::kStageKmerAnalysis), 0.0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hipmer
