#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/alignment.hpp"
#include "pgas/shuffle.hpp"
#include "seq/packed_read_arena.hpp"
#include "seq/read.hpp"

/// Locality-aware read shuffle (--shuffle-reads).
///
/// After merAligner places the reads, each rank mostly holds reads that
/// align to contigs owned by *other* ranks (contigs are dealt id % P, reads
/// were dealt pair % P at ingest — the two deals are unrelated). Gap
/// closing then pays an off-node message for nearly every read projection.
/// This collective fixes that: read pairs are re-dealt so the rank that
/// owns a pair's best-aligned contig owns the pair, turning the projection
/// exchange into mostly self-sends.
///
/// The shuffle unit is the whole (library, pair) group — both mates plus
/// every alignment either mate produced travel as one record, so the
/// "mates are adjacent, partner = index ^ 1" invariant survives the move
/// and gap closing can still match alignments to local reads by
/// (library, pair_id, mate). Pairs with no alignment on this rank stay put
/// (degraded locality, never lost reads): a record carries 0..2 reads and
/// any number of alignments, which also absorbs the resume corner where a
/// re-sharded read distribution does not match a snapshot's alignment
/// distribution.
///
/// Destination rule (pure function of the pair's alignment set, so every
/// distribution of the same multiset converges to the same placement):
/// best alignment by (score desc, contig_id asc, contig_start asc, mate
/// asc), then dest = contig_id % P — the ContigStore's owner_of deal.
namespace hipmer::pipeline {

struct ReadShuffleStats {
  std::uint64_t pairs_total = 0;   ///< (library, pair) groups seen locally
  std::uint64_t pairs_moved = 0;   ///< groups shipped to another rank
  std::uint64_t reads_moved = 0;   ///< reads inside those groups
};

/// One decoded shuffle record: a (library, pair) group's reads and
/// alignments. The wire format (schema `shuffle_group`) is
///   u32 lib, u32 nreads, nreads x read_record,
///   u32 naligns, naligns x alignment_record.
struct ShuffleGroup {
  std::uint32_t lib = 0;
  std::vector<seq::Read> reads;
  std::vector<align::ReadAlignment> alignments;
};

[[nodiscard]] std::vector<std::byte> encode_shuffle_group(
    const ShuffleGroup& group);

/// Throws io::wire::Error on any malformed record — callers decode the
/// whole record before mutating any store, so a corrupt record never
/// leaves a partial append behind.
[[nodiscard]] ShuffleGroup decode_shuffle_group(const std::byte* data,
                                                std::size_t size);

/// Collective over the team. Replaces `my_libs` (per-library packed
/// arenas) and `my_alignments` with the post-shuffle ownership. Records are
/// exchanged through `exchange` (construct one per call, in the serial
/// context).
void shuffle_reads_by_alignment(pgas::Rank& rank,
                                pgas::ShuffleExchange& exchange,
                                std::vector<seq::PackedReads>& my_libs,
                                std::vector<align::ReadAlignment>& my_alignments,
                                ReadShuffleStats* stats = nullptr);

}  // namespace hipmer::pipeline
