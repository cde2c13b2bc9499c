#pragma once

#include "align/alignment.hpp"
#include "io/wire.hpp"

/// Field-wise wire codec for ReadAlignment, used by the checkpoint
/// alignments shard.
///
/// ReadAlignment used to ship as a whole-struct put_pod, which serialized
/// its padding (3 bytes after the bool, 4 at the tail): seven dead wire
/// bytes per record that decoded identically under any corruption —
/// invisible to CRC-less byte-flip sweeps and dependent on one compiler's
/// layout. Writing the eleven live fields explicitly makes every wire byte
/// meaningful and pins the format independent of struct layout.
namespace hipmer::align {

// wire-schema: alignment_record writer
inline void put_alignment(io::wire::Writer& w, const ReadAlignment& a) {
  w.put_u64(a.pair_id);
  w.put_pod<std::int32_t>(a.mate);
  w.put_pod<std::int32_t>(a.library);
  w.put_u32(a.contig_id);
  w.put_u32(a.contig_len);
  w.put_pod<std::int32_t>(a.read_start);
  w.put_pod<std::int32_t>(a.read_end);
  w.put_pod<std::int32_t>(a.read_len);
  w.put_pod<std::int32_t>(a.contig_start);
  w.put_pod<std::int32_t>(a.contig_end);
  w.put_pod(static_cast<std::uint8_t>(a.read_fwd ? 1 : 0));
  w.put_pod<std::int32_t>(a.score);
}

// wire-schema: alignment_record reader
inline ReadAlignment get_alignment_checked(io::wire::Reader& r) {
  ReadAlignment a;
  a.pair_id = r.get_u64_checked("alignment pair_id");
  a.mate = r.get_pod_checked<std::int32_t>("alignment mate");
  a.library = r.get_pod_checked<std::int32_t>("alignment library");
  a.contig_id = r.get_u32_checked("alignment contig_id");
  a.contig_len = r.get_u32_checked("alignment contig_len");
  a.read_start = r.get_pod_checked<std::int32_t>("alignment read_start");
  a.read_end = r.get_pod_checked<std::int32_t>("alignment read_end");
  a.read_len = r.get_pod_checked<std::int32_t>("alignment read_len");
  a.contig_start = r.get_pod_checked<std::int32_t>("alignment contig_start");
  a.contig_end = r.get_pod_checked<std::int32_t>("alignment contig_end");
  const auto fwd = r.get_pod_checked<std::uint8_t>("alignment read_fwd");
  if (fwd > 1)
    throw io::wire::CorruptError(
        "wire: corrupt: alignment read_fwd flag is neither 0 nor 1");
  a.read_fwd = fwd != 0;
  a.score = r.get_pod_checked<std::int32_t>("alignment score");
  return a;
}

}  // namespace hipmer::align
