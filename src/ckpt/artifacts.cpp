#include "ckpt/artifacts.hpp"

#include <algorithm>
#include <tuple>

#include "align/alignment_wire.hpp"
#include "dbg/contig_wire.hpp"
#include "io/wire.hpp"
#include "seq/read_name.hpp"

namespace hipmer::ckpt {

namespace {

using io::wire::count_fits;
using io::wire::Reader;
using io::wire::Writer;

}  // namespace

// ---- reads ----

// wire-schema: ckpt_packed_reads_shard writer
std::vector<std::byte> encode_packed_reads_shard(
    const std::vector<seq::PackedReads>& libs) {
  std::vector<std::byte> buf;
  Writer w(buf);
  w.put_u32(kPackedReadsMagic);
  w.put_u32(static_cast<std::uint32_t>(libs.size()));
  for (const auto& arena : libs) {
    w.put_u64(arena.size());
    for (std::size_t i = 0; i < arena.size(); ++i) {
      w.put_bytes(arena.name(i));
      const auto view = arena.view(i);
      w.put_u32(view.length);
      for (std::size_t wd = 0; wd < (view.length + 31) / 32; ++wd)
        w.put_u64(view.words[wd]);
      w.put_u32(view.except_count);
      for (std::uint32_t e = 0; e < view.except_count; ++e) {
        w.put_u32(view.except_pos[e]);
        w.put_pod(view.except_chr[e]);  // wire: pod char
      }
      const auto [enc, enc_len] = arena.qual_enc(i);
      w.put_bytes(std::string_view(reinterpret_cast<const char*>(enc),
                                   enc_len));
    }
  }
  return buf;
}

// wire-schema: ckpt_packed_reads_shard reader
std::optional<std::vector<std::vector<seq::Read>>> decode_reads_shard(
    const std::vector<std::byte>& bytes) {
  Reader r(bytes);
  try {
    if (r.get_u32_checked("reads magic") != kPackedReadsMagic)
      return std::nullopt;
    const std::uint32_t nlibs = r.get_u32_checked("packed nlibs");
    if (nlibs > (1u << 16)) return std::nullopt;
    std::vector<std::vector<seq::Read>> libs(nlibs);
    std::vector<std::uint64_t> words;
    std::vector<std::uint32_t> exc_pos;
    std::vector<char> exc_chr;
    for (auto& reads : libs) {
      const std::uint64_t n = r.get_u64_checked("packed read count");
      // Minimum framed packed read: name len + length + exc count + qual len.
      if (!count_fits(r, n, 16)) return std::nullopt;
      reads.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        seq::Read read;
        read.name = r.get_bytes_checked("packed read name");
        const std::uint32_t len = r.get_u32_checked("packed seq length");
        if ((len + 31) / 32 > r.remaining() / 8 + 1) return std::nullopt;
        words.resize((len + 31) / 32);
        for (auto& wd : words) wd = r.get_u64_checked("packed seq word");
        const std::uint32_t nexc = r.get_u32_checked("packed exception count");
        if (nexc > len) return std::nullopt;
        exc_pos.resize(nexc);
        exc_chr.resize(nexc);
        for (std::uint32_t e = 0; e < nexc; ++e) {
          exc_pos[e] = r.get_u32_checked("packed exception pos");
          exc_chr[e] = r.get_pod_checked<char>("packed exception chr");
          if (exc_pos[e] >= len) return std::nullopt;
        }
        const std::string enc = r.get_bytes_checked("packed quals");
        const seq::PackedSeqView view{words.data(), len, exc_pos.data(),
                                      exc_chr.data(), nexc};
        seq::decode_packed_seq(view, read.seq);
        seq::decode_quals(reinterpret_cast<const std::uint8_t*>(enc.data()),
                          enc.size(), len, read.quals);
        reads.push_back(std::move(read));
      }
    }
    if (!r.done()) return std::nullopt;
    return libs;
  } catch (const io::wire::Error&) {
    return std::nullopt;
  }
}

std::vector<std::vector<std::vector<seq::Read>>> reshard_reads(
    std::vector<std::vector<std::vector<seq::Read>>> shards, int p) {
  if (static_cast<int>(shards.size()) == p) return shards;

  std::size_t nlibs = 0;
  for (const auto& shard : shards) nlibs = std::max(nlibs, shard.size());

  std::vector<std::vector<std::vector<seq::Read>>> out(
      static_cast<std::size_t>(p),
      std::vector<std::vector<seq::Read>>(nlibs));

  for (std::size_t lib = 0; lib < nlibs; ++lib) {
    struct PairEntry {
      std::uint64_t name_key;
      std::uint64_t fallback_key;
      seq::Read reads[2];
      int n;
    };
    std::vector<PairEntry> pairs;
    bool all_parse = true;
    std::uint64_t enumeration = 0;
    for (auto& shard : shards) {
      if (lib >= shard.size()) continue;
      auto& reads = shard[lib];
      for (std::size_t i = 0; i < reads.size(); i += 2) {
        PairEntry entry;
        entry.fallback_key = enumeration++;
        entry.name_key = entry.fallback_key;
        int mate = 0;
        std::uint64_t pair_index = 0;
        if (seq::parse_read_name(reads[i].name, pair_index, mate))
          entry.name_key = pair_index;
        else
          all_parse = false;
        entry.reads[0] = std::move(reads[i]);
        entry.n = 1;
        if (i + 1 < reads.size()) {
          entry.reads[1] = std::move(reads[i + 1]);
          entry.n = 2;
        }
        pairs.push_back(std::move(entry));
      }
      reads.clear();
    }
    // Keying on the name's pair index keeps each pair's reads on the same
    // rank as its alignments (resharded by pair_id % p); when any name
    // deviates from the convention, fall back to the enumeration order,
    // which is still deterministic and pair-preserving.
    std::stable_sort(pairs.begin(), pairs.end(),
                     [&](const PairEntry& a, const PairEntry& b) {
                       return (all_parse ? a.name_key : a.fallback_key) <
                              (all_parse ? b.name_key : b.fallback_key);
                     });
    for (auto& entry : pairs) {
      const std::uint64_t key =
          all_parse ? entry.name_key : entry.fallback_key;
      auto& dest = out[static_cast<std::size_t>(
          key % static_cast<std::uint64_t>(p))][lib];
      for (int m = 0; m < entry.n; ++m)
        dest.push_back(std::move(entry.reads[m]));
    }
  }
  return out;
}

// ---- ufx ----

// wire-schema: ckpt_ufx_shard writer
std::vector<std::byte> encode_ufx_shard(
    const std::vector<kcount::UfxRecord>& records) {
  std::vector<std::byte> buf;
  Writer w(buf);
  w.put_u32(kUfxMagic);
  w.put_u64(records.size());
  for (const auto& [kmer, summary] : records) {
    w.put_pod(kmer);  // wire: pod seq::KmerT
    w.put_u32(summary.depth);
    w.put_pod(summary.left_ext);   // wire: pod char
    w.put_pod(summary.right_ext);  // wire: pod char
  }
  return buf;
}

// wire-schema: ckpt_ufx_shard reader
std::optional<std::vector<kcount::UfxRecord>> decode_ufx_shard(
    const std::vector<std::byte>& bytes) {
  Reader r(bytes);
  try {
    if (r.get_u32_checked("ufx magic") != kUfxMagic) return std::nullopt;
    const std::uint64_t n = r.get_u64_checked("ufx count");
    constexpr std::size_t kRecordBytes = sizeof(seq::KmerT) + 4 + 2;
    if (!count_fits(r, n, kRecordBytes)) return std::nullopt;
    std::vector<kcount::UfxRecord> records;
    records.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      kcount::UfxRecord record;
      record.first = r.get_pod_checked<seq::KmerT>("ufx kmer");
      record.second.depth = r.get_u32_checked("ufx depth");
      record.second.left_ext = r.get_pod_checked<char>("ufx left ext");
      record.second.right_ext = r.get_pod_checked<char>("ufx right ext");
      records.push_back(record);
    }
    if (!r.done()) return std::nullopt;
    return records;
  } catch (const io::wire::Error&) {
    return std::nullopt;
  }
}

// ---- contigs ----

// wire-schema: ckpt_contigs_shard writer
std::vector<std::byte> encode_contigs_shard(
    const std::vector<const dbg::Contig*>& contigs) {
  std::vector<std::byte> buf;
  Writer w(buf);
  w.put_u32(kContigsMagic);
  w.put_u64(contigs.size());
  for (const auto* contig : contigs) dbg::serialize_contig(buf, *contig);
  return buf;
}

// wire-schema: ckpt_contigs_shard reader
std::optional<std::vector<dbg::Contig>> decode_contigs_shard(
    const std::vector<std::byte>& bytes) {
  Reader r(bytes);
  try {
    if (r.get_u32_checked("contigs magic") != kContigsMagic)
      return std::nullopt;
    const std::uint64_t n = r.get_u64_checked("contigs count");
    if (!count_fits(r, n,
                    sizeof(dbg::ContigWireHeader) + sizeof(std::uint32_t)))
      return std::nullopt;
    std::vector<dbg::Contig> contigs;
    contigs.reserve(static_cast<std::size_t>(n));
    // Count-driven loop (not dbg::deserialize_contigs, which stops silently
    // on a partial trailing record): a record shortfall is corruption here.
    for (std::uint64_t i = 0; i < n; ++i) {
      contigs.push_back(dbg::get_contig_checked(r));
    }
    if (!r.done()) return std::nullopt;
    return contigs;
  } catch (const io::wire::Error&) {
    return std::nullopt;
  }
}

// ---- alignments ----

// wire-schema: ckpt_alignments_shard writer
std::vector<std::byte> encode_alignments_shard(
    const std::vector<align::ReadAlignment>& alignments) {
  std::vector<std::byte> buf;
  Writer w(buf);
  w.put_u32(kAlignMagic);
  w.put_u64(alignments.size());
  for (const auto& a : alignments) align::put_alignment(w, a);
  return buf;
}

// wire-schema: ckpt_alignments_shard reader
std::optional<std::vector<align::ReadAlignment>> decode_alignments_shard(
    const std::vector<std::byte>& bytes) {
  Reader r(bytes);
  try {
    if (r.get_u32_checked("alignments magic") != kAlignMagic)
      return std::nullopt;
    const std::uint64_t n = r.get_u64_checked("alignments count");
    // Field-wise ReadAlignment: 9 x i32/u32 + u64 + u8 = 45 bytes.
    if (!count_fits(r, n, 45)) return std::nullopt;
    std::vector<align::ReadAlignment> alignments;
    alignments.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      alignments.push_back(align::get_alignment_checked(r));
    }
    if (!r.done()) return std::nullopt;
    return alignments;
  } catch (const io::wire::Error&) {
    return std::nullopt;
  }
}

std::vector<std::vector<align::ReadAlignment>> reshard_alignments(
    std::vector<std::vector<align::ReadAlignment>> shards, int p) {
  if (static_cast<int>(shards.size()) == p) return shards;
  std::vector<align::ReadAlignment> all;
  for (auto& shard : shards) {
    all.insert(all.end(), shard.begin(), shard.end());
    shard.clear();
  }
  const auto key = [](const align::ReadAlignment& a) {
    return std::make_tuple(a.library, a.pair_id, a.mate, a.read_start,
                           a.read_end, a.contig_id, a.contig_start,
                           a.contig_end, a.score);
  };
  std::stable_sort(all.begin(), all.end(),
                   [&](const align::ReadAlignment& a,
                       const align::ReadAlignment& b) {
                     return key(a) < key(b);
                   });
  std::vector<std::vector<align::ReadAlignment>> out(
      static_cast<std::size_t>(p));
  for (const auto& a : all)
    out[static_cast<std::size_t>(a.pair_id % static_cast<std::uint64_t>(p))]
        .push_back(a);
  return out;
}

// ---- scaffolds ----

// wire-schema: ckpt_scaffolds_shard writer
std::vector<std::byte> encode_scaffolds_shard(
    const std::vector<io::FastaRecord>& records, int shard, int nshards,
    const ScaffoldExtras* extras) {
  std::vector<std::byte> buf;
  Writer w(buf);
  w.put_u32(kScaffMagic);
  w.put_pod<std::uint8_t>(extras != nullptr ? 1 : 0);
  if (extras != nullptr) {
    w.put_pod(extras->closure_stats);  // wire: pod scaffold::ScaffoldStats
    w.put_u32(static_cast<std::uint32_t>(extras->inserts.size()));
    for (const auto& est : extras->inserts)
      w.put_pod(est);  // wire: pod scaffold::InsertSizeEstimate
  }
  std::uint64_t mine = 0;
  for (std::size_t i = static_cast<std::size_t>(shard); i < records.size();
       i += static_cast<std::size_t>(nshards))
    ++mine;
  w.put_u64(mine);
  for (std::size_t i = static_cast<std::size_t>(shard); i < records.size();
       i += static_cast<std::size_t>(nshards)) {
    w.put_u64(i);
    w.put_bytes(records[i].name);
    w.put_bytes(records[i].seq);
  }
  return buf;
}

// wire-schema: ckpt_scaffolds_shard reader
std::optional<ScaffoldShard> decode_scaffolds_shard(
    const std::vector<std::byte>& bytes) {
  Reader r(bytes);
  try {
    if (r.get_u32_checked("scaffolds magic") != kScaffMagic)
      return std::nullopt;
    ScaffoldShard shard;
    const auto has_extras = r.get_pod_checked<std::uint8_t>("extras flag");
    if (has_extras > 1) return std::nullopt;
    if (has_extras != 0) {
      ScaffoldExtras extras;
      extras.closure_stats =
          r.get_pod_checked<scaffold::ScaffoldStats>("closure stats");
      const std::uint32_t n_inserts = r.get_u32_checked("insert count");
      if (!count_fits(r, n_inserts, sizeof(scaffold::InsertSizeEstimate)))
        return std::nullopt;
      extras.inserts.reserve(n_inserts);
      for (std::uint32_t i = 0; i < n_inserts; ++i) {
        extras.inserts.push_back(
            r.get_pod_checked<scaffold::InsertSizeEstimate>("insert estimate"));
      }
      shard.extras = std::move(extras);
    }
    const std::uint64_t n = r.get_u64_checked("scaffold count");
    // Record minimum: u64 index + two length prefixes.
    if (!count_fits(r, n, 16)) return std::nullopt;
    shard.records.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t index = r.get_u64_checked("scaffold index");
      io::FastaRecord record;
      record.name = r.get_bytes_checked("scaffold name");
      record.seq = r.get_bytes_checked("scaffold seq");
      shard.records.emplace_back(index, std::move(record));
    }
    if (!r.done()) return std::nullopt;
    return shard;
  } catch (const io::wire::Error&) {
    return std::nullopt;
  }
}

std::vector<io::FastaRecord> merge_scaffold_shards(
    std::vector<ScaffoldShard> shards) {
  std::vector<std::pair<std::uint64_t, io::FastaRecord>> all;
  for (auto& shard : shards) {
    for (auto& rec : shard.records) all.push_back(std::move(rec));
    shard.records.clear();
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<io::FastaRecord> out;
  out.reserve(all.size());
  for (auto& [index, record] : all) out.push_back(std::move(record));
  return out;
}

}  // namespace hipmer::ckpt
