#include "pipeline/read_shuffle.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "align/alignment_wire.hpp"
#include "io/wire.hpp"
#include "seq/read_name.hpp"

namespace hipmer::pipeline {

namespace {

/// One (library, pair) shuffle unit under construction.
struct PairGroup {
  std::uint32_t lib = 0;
  /// Local read indices within the library store, mate-ascending.
  std::vector<std::uint32_t> read_idx;
  std::vector<align::ReadAlignment> alignments;
};

/// Streaming twin of encode_shuffle_group: same wire bytes, sourced from a
/// PackedReads arena without materializing seq::Read objects. wirecheck
/// diffs both writers against the reader, so the two cannot drift apart
/// silently.
// wire-schema: shuffle_group writer
std::vector<std::byte> encode_group(const PairGroup& g,
                                    const seq::PackedReads& store) {
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  w.put_u32(g.lib);
  w.put_u32(static_cast<std::uint32_t>(g.read_idx.size()));
  std::string seq_scratch;
  std::string qual_scratch;
  for (const std::uint32_t idx : g.read_idx) {
    w.put_bytes(store.name(idx));
    w.put_bytes(store[idx].seq(seq_scratch));
    w.put_bytes(store[idx].quals(qual_scratch));
  }
  w.put_u32(static_cast<std::uint32_t>(g.alignments.size()));
  for (const auto& a : g.alignments) align::put_alignment(w, a);
  return buf;
}

/// Best alignment of the group decides the destination; ties broken the
/// same way merAligner orders its report (score desc, contig asc, start
/// asc) plus mate asc, so the winner is a pure function of the set.
bool better(const align::ReadAlignment& a, const align::ReadAlignment& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.contig_id != b.contig_id) return a.contig_id < b.contig_id;
  if (a.contig_start != b.contig_start) return a.contig_start < b.contig_start;
  return a.mate < b.mate;
}

}  // namespace

// wire-schema: shuffle_group writer
std::vector<std::byte> encode_shuffle_group(const ShuffleGroup& group) {
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  w.put_u32(group.lib);
  w.put_u32(static_cast<std::uint32_t>(group.reads.size()));
  for (const auto& read : group.reads) io::wire::put_read(w, read);
  w.put_u32(static_cast<std::uint32_t>(group.alignments.size()));
  for (const auto& a : group.alignments) align::put_alignment(w, a);
  return buf;
}

// wire-schema: shuffle_group reader
ShuffleGroup decode_shuffle_group(const std::byte* data, std::size_t size) {
  io::wire::Reader r(data, size);
  ShuffleGroup group;
  group.lib = r.get_u32_checked("group lib");
  const std::uint32_t nreads = r.get_u32_checked("group read count");
  group.reads.reserve(std::min<std::uint32_t>(nreads, 1024));
  for (std::uint32_t i = 0; i < nreads; ++i)
    group.reads.push_back(io::wire::get_read_checked(r));
  const std::uint32_t naligns = r.get_u32_checked("group alignment count");
  group.alignments.reserve(std::min<std::uint32_t>(naligns, 1024));
  for (std::uint32_t i = 0; i < naligns; ++i)
    group.alignments.push_back(align::get_alignment_checked(r));
  if (!r.done())
    throw io::wire::CorruptError(
        "wire: corrupt: trailing bytes after shuffle group");
  return group;
}

void shuffle_reads_by_alignment(
    pgas::Rank& rank, pgas::ShuffleExchange& exchange,
    std::vector<seq::PackedReads>& my_libs,
    std::vector<align::ReadAlignment>& my_alignments, ReadShuffleStats* stats) {
  const int me = rank.id();
  const auto p = static_cast<std::uint64_t>(rank.nranks());

  // ---- Group local reads and alignments by (library, pair). ----
  // Groups are created in scan order (libraries ascending, read index
  // ascending, then leftover alignment order), so the send sequence — and
  // with it the receiver's rebuild order — is deterministic.
  std::vector<PairGroup> groups;
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> group_of(
      my_libs.size());
  const auto group_for = [&](std::uint32_t lib,
                             std::uint64_t pair_id) -> PairGroup& {
    auto [it, inserted] =
        group_of[lib].try_emplace(pair_id, static_cast<std::uint32_t>(groups.size()));
    if (inserted) {
      groups.emplace_back();
      groups.back().lib = lib;
    }
    return groups[it->second];
  };

  for (std::size_t lib = 0; lib < my_libs.size(); ++lib) {
    const auto& store = my_libs[lib];
    for (std::size_t i = 0; i < store.size(); ++i) {
      std::uint64_t pair_id = 0;
      int mate = 0;
      if (!seq::parse_read_name(store.name(i), pair_id, mate)) {
        // Unparseable name: pin the read in place under a private key so it
        // is never shipped (the aligner skipped it too).
        continue;
      }
      group_for(static_cast<std::uint32_t>(lib), pair_id)
          .read_idx.push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (const auto& a : my_alignments) {
    const auto lib = static_cast<std::uint32_t>(a.library);
    if (lib >= my_libs.size()) continue;
    group_for(lib, a.pair_id).alignments.push_back(a);
  }

  // Mates travel mate-ascending inside a record; scan order already yields
  // that when mates are adjacent, but a resume reshard may not keep them
  // sorted, so enforce it.
  std::string name_scratch;
  for (auto& g : groups) {
    std::sort(g.read_idx.begin(), g.read_idx.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                std::uint64_t px = 0, py = 0;
                int mx = 0, my_ = 0;
                (void)seq::parse_read_name(my_libs[g.lib].name(x), px, mx);
                (void)seq::parse_read_name(my_libs[g.lib].name(y), py, my_);
                if (mx != my_) return mx < my_;
                return x < y;
              });
  }

  // ---- Route every group; self-destined records bypass the transport. ----
  ReadShuffleStats local;
  std::vector<std::vector<std::byte>> staying;
  for (const auto& g : groups) {
    int dest = me;
    if (!g.alignments.empty()) {
      const auto best = std::min_element(
          g.alignments.begin(), g.alignments.end(),
          [](const align::ReadAlignment& a, const align::ReadAlignment& b) {
            return better(a, b);
          });
      dest = static_cast<int>(best->contig_id % p);
    }
    local.pairs_total += 1;
    auto record = encode_group(g, my_libs[g.lib]);
    if (dest == me) {
      staying.push_back(std::move(record));
    } else {
      local.pairs_moved += 1;
      local.reads_moved += g.read_idx.size();
      exchange.send(rank, dest, std::move(record));
    }
  }

  // Reads whose names did not parse never joined a group; re-encode them as
  // stay-put singleton records so nothing is dropped.
  for (std::size_t lib = 0; lib < my_libs.size(); ++lib) {
    const auto& store = my_libs[lib];
    for (std::size_t i = 0; i < store.size(); ++i) {
      std::uint64_t pair_id = 0;
      int mate = 0;
      if (seq::parse_read_name(store.name(i), pair_id, mate)) continue;
      PairGroup g;
      g.lib = static_cast<std::uint32_t>(lib);
      g.read_idx.push_back(static_cast<std::uint32_t>(i));
      staying.push_back(encode_group(g, store));
    }
  }

  auto incoming = exchange.collect(rank);

  // ---- Rebuild: stayers first, then incoming (src asc, send order). ----
  std::vector<seq::PackedReads> fresh(my_libs.size());
  std::vector<align::ReadAlignment> fresh_aligns;

  // Decode the whole record before touching any store: a malformed record
  // (impossible unless the CRC-checked transport or a peer misbehaved) is
  // dropped atomically instead of leaving a half-appended library behind.
  const auto absorb = [&](const std::vector<std::byte>& record) {
    ShuffleGroup group;
    try {
      group = decode_shuffle_group(record.data(), record.size());
    } catch (const io::wire::Error&) {
      return;
    }
    if (group.lib >= fresh.size()) return;
    for (auto& read : group.reads)
      fresh[group.lib].append(read.name, read.seq, read.quals);
    for (const auto& a : group.alignments) fresh_aligns.push_back(a);
  };
  for (const auto& rec : staying) absorb(rec);
  for (const auto& rec : incoming) absorb(rec);
  for (auto& store : fresh) store.shrink_to_fit();

  my_libs = std::move(fresh);
  my_alignments = std::move(fresh_aligns);
  if (stats != nullptr) *stats = local;
}

}  // namespace hipmer::pipeline
