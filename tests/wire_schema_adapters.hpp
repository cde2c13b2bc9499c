#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "align/alignment_wire.hpp"
#include "align/contig_store.hpp"
#include "ckpt/artifacts.hpp"
#include "ckpt/manifest.hpp"
#include "dbg/contig_wire.hpp"
#include "io/seqdb.hpp"
#include "io/wire.hpp"
#include "pgas/fabric_wire.hpp"
#include "pgas/map_wire.hpp"
#include "pgas/transport.hpp"
#include "seq/packed_read_arena.hpp"
#include "server/artifact_cache.hpp"
#include "server/journal.hpp"
#include "server/protocol.hpp"

/// One corruption-sweep adapter per schema in tools/wirecheck/schemas.json.
///
/// Each adapter supplies a pristine encoding of a representative message and
/// a decode function returning the message's *fingerprint* — its canonical
/// re-encoding (or an explicit dump where re-encoding is not a function of
/// the decoded value alone). The sweep driver in test_wire_schemas.cpp then
/// demands, for every single-byte flip and every truncation point:
///   - reject-mode schemas (own CRC): decode fails outright;
///   - detect-mode schemas (integrity delegated to an envelope): decode
///     fails OR the fingerprint changes. A corruption that decodes back to
///     the original message means the flipped byte was dead on the wire —
///     the exact defect class that motivated the ALN2 format bump.
///
/// Samples are chosen so every wire byte is live: 32-base pure-ACGT reads
/// fill packed words exactly, wide-spread qualities force the verbatim qual
/// mode (the nibble modes pad half a byte on odd lengths), and the seqdb
/// read is 30 bases so the packed-tail canonicality check is exercised.
namespace hipmer::testing {

using Bytes = std::vector<std::byte>;
/// nullopt = the decoder rejected the buffer.
using Fingerprint = std::optional<Bytes>;

struct WireSweepCase {
  std::string schema;
  Bytes bytes;
  std::function<Fingerprint(const Bytes&)> decode;
};

namespace sweep_detail {

/// Run a decode body, mapping any exception to a rejection. Codecs throw
/// io::wire errors (or std::runtime_error for seqdb); std::bad_alloc from a
/// corrupted count would also be a rejection, but the decoders validate
/// counts before allocating, so it should never actually fire.
template <typename F>
Fingerprint guard(F&& f) {
  try {
    return std::forward<F>(f)();
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

inline Bytes to_bytes(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Bytes(p, p + s.size());
}

inline std::string to_string(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// 32-base pure-ACGT sequence (exactly one packed word, no dead bits) with
/// qualities spread across four values >15 apart: RLE would double them,
/// the band modes cannot cover the range cheaply, so encode_quals picks
/// verbatim — the one qual mode with no padding slack.
inline seq::Read sample_read(int i) {
  seq::Read read;
  read.name = "pair" + std::to_string(i) + "/" + std::to_string(1 + i % 2);
  static constexpr const char* kSeqs[] = {
      "ACGTACGTTTGCAACGGATCCATGCGTAACGT",
      "TTGCAGGCACGTACGTAACGGATCACGTCCAT",
      "GATCACGTCCATTTGCAGGCACGTAACGACGT",
  };
  read.seq = kSeqs[i % 3];
  read.quals.reserve(read.seq.size());
  for (std::size_t j = 0; j < read.seq.size(); ++j)
    read.quals.push_back(static_cast<char>(33 + 17 * ((j + i) % 4)));
  return read;
}

inline align::ReadAlignment sample_alignment(int i) {
  align::ReadAlignment a;
  a.pair_id = 4200 + i;
  a.mate = i % 2;
  a.library = 1;
  a.contig_id = 7 + static_cast<std::uint32_t>(i);
  a.contig_len = 1500;
  a.read_start = 3;
  a.read_end = 30;
  a.read_len = 32;
  a.contig_start = 100 + i;
  a.contig_end = 127 + i;
  a.read_fwd = i % 2 == 0;
  a.score = 27;
  return a;
}

inline dbg::Contig sample_contig(int i) {
  dbg::Contig contig;
  contig.id = 90 + i;
  contig.seq = "ACGTTGCAGGCATCCATGCGTAACG";
  contig.avg_depth = 12.5 + i;
  contig.left.code = 'F';
  contig.left.has_junction = true;
  contig.left.junction = seq::KmerT::from_string("ACGTTGCAGGCATCCATGCGT");
  contig.right.code = 'X';
  contig.right.has_junction = false;
  return contig;
}

}  // namespace sweep_detail

/// All sweep adapters, keyed by schema name; test_wire_schemas.cpp checks
/// this list and the generated manifest rows cover each other exactly.
inline std::vector<WireSweepCase> wire_sweep_cases() {
  using namespace sweep_detail;
  namespace wire = io::wire;
  std::vector<WireSweepCase> cases;

  // ---- io: seqdb record (30 bases: packed tail canonicality is live) ----
  {
    seq::Read sample = sample_read(1);
    sample.seq.resize(30);
    sample.quals.resize(30);
    std::string enc;
    io::seqdb_serialize_record(enc, sample);
    cases.push_back({"seqdb_record", to_bytes(enc), [](const Bytes& b) {
                       return guard([&] {
                         const std::string buf = to_string(b);
                         std::size_t pos = 0;
                         const seq::Read read =
                             io::seqdb_deserialize_record(buf, pos);
                         if (pos != buf.size()) return Fingerprint{};
                         std::string out;
                         io::seqdb_serialize_record(out, read);
                         return Fingerprint{to_bytes(out)};
                       });
                     }});
  }

  // ---- align: alignment record ----
  {
    Bytes buf;
    wire::Writer w(buf);
    align::put_alignment(w, sample_alignment(0));
    cases.push_back({"alignment_record", std::move(buf), [](const Bytes& b) {
                       return guard([&] {
                         wire::Reader r(b);
                         const auto a = align::get_alignment_checked(r);
                         if (!r.done()) return Fingerprint{};
                         Bytes out;
                         wire::Writer w2(out);
                         align::put_alignment(w2, a);
                         return Fingerprint{std::move(out)};
                       });
                     }});
  }

  // ---- align: contig meta ----
  {
    align::ContigStore::Meta meta;
    meta.length = 1234;
    meta.avg_depth = 8.25F;
    meta.left_term = 'F';
    meta.right_term = 'D';
    Bytes buf;
    wire::Writer w(buf);
    align::put_contig_meta(w, meta);
    cases.push_back({"contig_meta", std::move(buf), [](const Bytes& b) {
                       return guard([&] {
                         wire::Reader r(b);
                         const auto m = align::get_contig_meta_checked(r);
                         if (!r.done()) return Fingerprint{};
                         Bytes out;
                         wire::Writer w2(out);
                         align::put_contig_meta(w2, m);
                         return Fingerprint{std::move(out)};
                       });
                     }});
  }

  // ---- dbg: contig record ----
  {
    Bytes buf;
    dbg::serialize_contig(buf, sample_contig(0));
    cases.push_back({"contig_record", std::move(buf), [](const Bytes& b) {
                       return guard([&] {
                         wire::Reader r(b);
                         const dbg::Contig contig = dbg::get_contig_checked(r);
                         if (!r.done()) return Fingerprint{};
                         Bytes out;
                         dbg::serialize_contig(out, contig);
                         return Fingerprint{std::move(out)};
                       });
                     }});
  }

  // ---- ckpt: reads shard (packed) ----
  {
    std::vector<seq::PackedReads> libs(2);
    libs[0].append(sample_read(0));
    libs[0].append(sample_read(1));
    libs[1].append(sample_read(2));
    cases.push_back({"ckpt_packed_reads_shard",
                     ckpt::encode_packed_reads_shard(libs),
                     [](const Bytes& b) {
                       return guard([&]() -> Fingerprint {
                         auto reads = ckpt::decode_reads_shard(b);
                         if (!reads) return std::nullopt;
                         std::vector<seq::PackedReads> libs2(reads->size());
                         for (std::size_t l = 0; l < reads->size(); ++l)
                           for (const auto& read : (*reads)[l])
                             libs2[l].append(read);
                         return ckpt::encode_packed_reads_shard(libs2);
                       });
                     }});
  }

  // ---- ckpt: ufx shard ----
  {
    std::vector<kcount::UfxRecord> records(2);
    records[0].first = seq::KmerT::from_string("ACGTTGCAGGCATCCATGCGTAACGACGTAC");
    records[0].second = {17, 'A', 'T'};
    records[1].first = seq::KmerT::from_string("TTGCAGGCACGTACGTAACGGATCACGTCCA");
    records[1].second = {3, 'F', 'G'};
    cases.push_back({"ckpt_ufx_shard", ckpt::encode_ufx_shard(records),
                     [](const Bytes& b) {
                       return guard([&]() -> Fingerprint {
                         auto records2 = ckpt::decode_ufx_shard(b);
                         if (!records2) return std::nullopt;
                         return ckpt::encode_ufx_shard(*records2);
                       });
                     }});
  }

  // ---- ckpt: contigs shard ----
  {
    const dbg::Contig c0 = sample_contig(0);
    const dbg::Contig c1 = sample_contig(1);
    cases.push_back({"ckpt_contigs_shard",
                     ckpt::encode_contigs_shard({&c0, &c1}),
                     [](const Bytes& b) {
                       return guard([&]() -> Fingerprint {
                         auto contigs = ckpt::decode_contigs_shard(b);
                         if (!contigs) return std::nullopt;
                         std::vector<const dbg::Contig*> ptrs;
                         for (const auto& c : *contigs) ptrs.push_back(&c);
                         return ckpt::encode_contigs_shard(ptrs);
                       });
                     }});
  }

  // ---- ckpt: alignments shard ----
  {
    cases.push_back({"ckpt_alignments_shard",
                     ckpt::encode_alignments_shard(
                         {sample_alignment(0), sample_alignment(1)}),
                     [](const Bytes& b) {
                       return guard([&]() -> Fingerprint {
                         auto aligns = ckpt::decode_alignments_shard(b);
                         if (!aligns) return std::nullopt;
                         return ckpt::encode_alignments_shard(*aligns);
                       });
                     }});
  }

  // ---- ckpt: scaffolds shard ----
  {
    ckpt::ScaffoldExtras extras;
    extras.closure_stats = {10, 7, 3, 2, 2, 5, 1};
    extras.inserts.push_back({215.5, 12.25, 4096});
    const std::vector<io::FastaRecord> records = {
        {"scaffold_0", "ACGTTGCAGGCATCCATGCGTAACG"},
        {"scaffold_1", "TTGCAGGCACGTACGTAACGGATCA"},
    };
    // Fingerprint is an explicit dump: re-encoding regenerates record
    // indices from position, so it could not represent a corrupted index
    // (the corruption would vanish from the re-encoding and the sweep would
    // wrongly report the index bytes as dead).
    cases.push_back({"ckpt_scaffolds_shard",
                     ckpt::encode_scaffolds_shard(records, 0, 1, &extras),
                     [](const Bytes& b) {
                       return guard([&]() -> Fingerprint {
                         auto shard = ckpt::decode_scaffolds_shard(b);
                         if (!shard) return std::nullopt;
                         Bytes out;
                         wire::Writer w(out);
                         w.put_pod<std::uint8_t>(shard->extras ? 1 : 0);
                         if (shard->extras) {
                           w.put_pod(shard->extras->closure_stats);
                           for (const auto& est : shard->extras->inserts)
                             w.put_pod(est);
                         }
                         for (const auto& [index, record] : shard->records) {
                           w.put_u64(index);
                           w.put_bytes(record.name);
                           w.put_bytes(record.seq);
                         }
                         return Fingerprint{std::move(out)};
                       });
                     }});
  }

  // ---- ckpt: manifest (CRC: reject mode) ----
  {
    ckpt::Manifest manifest;
    ckpt::StageEntry entry;
    entry.stage = "contigs";
    entry.seq = 3;
    entry.fingerprint = 0x1122334455667788ULL;
    entry.shard_count = 2;
    entry.shard_bytes = {1000, 1200};
    entry.shard_crcs = {0xDEADBEEF, 0x12345678};
    entry.aux.distinct_kmers = 5000;
    entry.aux.singleton_fraction = 0.25;
    entry.aux.heavy_hitters = 3;
    entry.aux.num_contigs = 42;
    entry.aux.contig_stats.num_sequences = 42;
    entry.aux.contig_stats.total_length = 12345;
    entry.aux.contig_stats.n50 = 800;
    manifest.entries.push_back(entry);
    entry.stage = "reads";
    entry.seq = 1;
    manifest.entries.push_back(entry);
    cases.push_back({"ckpt_manifest", ckpt::encode_manifest(manifest),
                     [](const Bytes& b) {
                       return guard([&]() -> Fingerprint {
                         auto m = ckpt::decode_manifest(b);
                         if (!m) return std::nullopt;
                         return ckpt::encode_manifest(*m);
                       });
                     }});
  }

  // ---- pgas: distributed-hash-map batch ----
  {
    struct Op {
      std::uint64_t key;
      std::uint64_t value;
    };
    const std::vector<Op> ops = {{0x1111, 0x2222}, {0x3333, 0x4444}};
    cases.push_back(
        {"dhm_batch", pgas::map_wire::encode_batch(ops), [](const Bytes& b) {
           return guard([&] {
             const auto ops2 =
                 pgas::map_wire::decode_batch<Op>(b.data(), b.size());
             return Fingerprint{pgas::map_wire::encode_batch(ops2)};
           });
         }});
  }

  // ---- pgas: lookup reply batch ----
  {
    std::vector<pgas::map_wire::LookupReply<std::uint64_t, std::uint32_t>>
        replies(2);
    replies[0] = {101, true, 0xAAAABBBBCCCCDDDDULL, 7};
    replies[1] = {102, false, 0x1234123412341234ULL, 0};
    cases.push_back({"dhm_lookup_reply",
                     pgas::map_wire::encode_lookup_replies(replies),
                     [](const Bytes& b) {
                       return guard([&] {
                         const auto replies2 = pgas::map_wire::
                             decode_lookup_replies<std::uint64_t,
                                                   std::uint32_t>(b.data(),
                                                                  b.size());
                         return Fingerprint{
                             pgas::map_wire::encode_lookup_replies(replies2)};
                       });
                     }});
  }

  // ---- pgas: registered-RMW request ----
  {
    const std::vector<std::byte> args = {std::byte{0x10}, std::byte{0x20},
                                         std::byte{0x30}, std::byte{0x41},
                                         std::byte{0x52}};
    cases.push_back({"dhm_rmw_request",
                     pgas::map_wire::encode_rmw_request<std::uint64_t>(
                         5, 0x9999AAAABBBBCCCCULL, 0xFEDCBA9876543210ULL,
                         args.data(), args.size()),
                     [](const Bytes& b) {
                       return guard([&] {
                         const auto req =
                             pgas::map_wire::decode_rmw_request<std::uint64_t>(
                                 b.data(), b.size());
                         return Fingerprint{
                             pgas::map_wire::encode_rmw_request(
                                 req.id, req.hash, req.key, req.args.data(),
                                 req.args.size())};
                       });
                     }});
  }

  // ---- pgas: registered-RMW response ----
  {
    const std::vector<std::byte> result = {std::byte{0x01}, std::byte{0x23},
                                           std::byte{0x45}, std::byte{0x67},
                                           std::byte{0x89}, std::byte{0xAB}};
    cases.push_back({"dhm_rmw_response",
                     pgas::map_wire::encode_rmw_response(true, result),
                     [](const Bytes& b) {
                       return guard([&] {
                         const auto resp = pgas::map_wire::decode_rmw_response(
                             b.data(), b.size());
                         return Fingerprint{pgas::map_wire::encode_rmw_response(
                             resp.has_value(),
                             resp.value_or(std::vector<std::byte>{}))};
                       });
                     }});
  }

  // ---- pgas: fabric frame (CRC: reject mode) ----
  {
    pgas::Frame frame;
    frame.kind = pgas::FrameKind::kData;
    frame.channel = 2;
    frame.src = 1;
    frame.dst = 3;
    frame.payload = {std::byte{0xDE}, std::byte{0xAD}, std::byte{0xBE},
                     std::byte{0xEF}, std::byte{0x05}};
    cases.push_back({"fabric_frame", pgas::encode_frame(frame),
                     [](const Bytes& b) {
                       return guard([&] {
                         const auto f = pgas::decode_frame(b.data(), b.size());
                         return Fingerprint{pgas::encode_frame(f)};
                       });
                     }});
  }

  // ---- pgas: barrier record ----
  {
    pgas::BarrierRecordMsg msg;
    msg.kind = 2;
    msg.file = "src/pipeline/pipeline.cpp";
    msg.line = 321;
    msg.func = "run_stage";
    cases.push_back({"fabric_barrier_record", pgas::encode_barrier_record(msg),
                     [](const Bytes& b) {
                       return guard([&] {
                         const auto m =
                             pgas::decode_barrier_record(b.data(), b.size());
                         return Fingerprint{pgas::encode_barrier_record(m)};
                       });
                     }});
  }

  // ---- pgas: barrier collect ----
  {
    pgas::BarrierCollectMsg msg;
    msg.slot_changed = true;
    msg.slot = {std::byte{0x11}, std::byte{0x22}, std::byte{0x33}};
    msg.has_record = true;
    pgas::BarrierRecordMsg rec;
    rec.kind = 1;
    rec.file = "a.cpp";
    rec.line = 9;
    rec.func = "f";
    msg.record = pgas::encode_barrier_record(rec);
    cases.push_back({"fabric_barrier_collect",
                     pgas::encode_barrier_collect(msg), [](const Bytes& b) {
                       return guard([&] {
                         const auto m =
                             pgas::decode_barrier_collect(b.data(), b.size());
                         return Fingerprint{pgas::encode_barrier_collect(m)};
                       });
                     }});
  }

  // ---- pgas: barrier release (nranks is team state, bound here to 3) ----
  {
    pgas::ReleaseMsg msg;
    msg.slots.emplace_back(0, Bytes{std::byte{0x10}, std::byte{0x11}});
    msg.slots.emplace_back(2, Bytes{std::byte{0x20}});
    msg.records_all = true;
    for (std::uint32_t rank = 0; rank < 3; ++rank) {
      pgas::BarrierRecordMsg rec;
      rec.kind = 2;
      rec.file = "b.cpp";
      rec.line = 10 + rank;
      rec.func = "g";
      msg.records.push_back(pgas::encode_barrier_record(rec));
    }
    cases.push_back({"fabric_release", pgas::encode_release(msg),
                     [](const Bytes& b) {
                       return guard([&] {
                         const auto m =
                             pgas::decode_release(b.data(), b.size(), 3);
                         return Fingerprint{pgas::encode_release(m)};
                       });
                     }});
  }

  // ---- pgas: roster ----
  {
    cases.push_back({"fabric_roster", pgas::encode_roster(7),
                     [](const Bytes& b) {
                       return guard([&] {
                         const auto n = pgas::decode_roster(b.data(), b.size());
                         return Fingerprint{pgas::encode_roster(n)};
                       });
                     }});
  }

  // ---- pgas: serial release ----
  {
    const std::vector<Bytes> parts = {
        {std::byte{0x01}, std::byte{0x02}},
        {},
        {std::byte{0x03}, std::byte{0x04}, std::byte{0x05}},
    };
    cases.push_back({"fabric_serial_release", pgas::encode_serial_release(parts),
                     [](const Bytes& b) {
                       return guard([&] {
                         const auto p =
                             pgas::decode_serial_release(b.data(), b.size());
                         return Fingerprint{pgas::encode_serial_release(p)};
                       });
                     }});
  }

  // ---- pgas: transport envelope (CRC: reject mode) ----
  {
    pgas::Envelope env;
    env.channel = 4;
    env.src = 0;
    env.dst = 2;
    env.seq = 77;
    env.payload = {std::byte{0x33}, std::byte{0x44}, std::byte{0x55}};
    cases.push_back({"transport_envelope", pgas::frame_envelope(env),
                     [](const Bytes& b) {
                       return guard([&] {
                         const auto e = pgas::decode_envelope(b.data(), b.size());
                         return Fingerprint{pgas::frame_envelope(e)};
                       });
                     }});
  }

  // ---- server: cache meta (CRC: reject mode) ----
  {
    server::CacheMeta meta;
    meta.key = 0xC0FFEE1234567890ULL;
    meta.distinct_kmers = 100000;
    meta.singleton_fraction = 0.375;
    meta.heavy_hitters = 12;
    meta.shards = {{2048, 0xAABBCCDD}, {4096, 0x11223344}};
    cases.push_back({"cache_meta", server::encode_cache_meta(meta),
                     [](const Bytes& b) {
                       return guard([&]() -> Fingerprint {
                         auto m = server::decode_cache_meta(b);
                         if (!m) return std::nullopt;
                         return server::encode_cache_meta(*m);
                       });
                     }});
  }

  // ---- server: journal event payload (CRC delegated to the record
  // frame: detect mode — the sweep demands reject-or-changed-fingerprint
  // on the bare payload; the frame-level CRC sweeps live in
  // test_journal.cpp and reject every corruption outright) ----
  {
    server::JournalEvent event;
    event.type = server::JournalEventType::kSubmit;
    event.job_id = 42;
    event.attempt = 1;
    event.final_state = server::JobState::kDone;
    event.scaffolds = 9;
    event.scaffold_bases = 9000;
    event.cache_hit = true;
    event.error = "attempt 0: rank killed";
    event.spec.id = 42;
    event.spec.tenant = "alice";
    event.spec.priority = 2;
    event.spec.output_path = "/out/a.fasta";
    event.spec.k = 25;
    event.spec.min_count = 3;
    event.spec.rounds = 2;
    event.spec.diploid = true;
    event.spec.use_cache = true;
    event.spec.kill_spec = "1@contigs";
    event.spec.chaos_spec = "drop=0.02";
    event.spec.chaos_seed = 77;
    event.spec.estimated_bytes = 1 << 20;
    event.spec.max_attempts = 3;
    event.spec.deadline_ms = 60000;
    event.spec.submit_wall_ms = 1754700000000ull;
    seq::ReadLibrary lib;
    lib.name = "lib0";
    lib.fastq_path = "/data/r.fastq";
    lib.mean_insert = 395.0;
    lib.for_contigging = true;
    event.spec.libraries.push_back(lib);
    cases.push_back({"journal_event", server::encode_journal_event(event),
                     [](const Bytes& b) {
                       return guard([&]() -> Fingerprint {
                         auto e = server::decode_journal_event(b);
                         if (!e) return std::nullopt;
                         return server::encode_journal_event(*e);
                       });
                     }});
  }

  // ---- server: framed control line (CRC: reject mode) ----
  {
    // The sweep unit is the line as the reader sees it: without the
    // trailing '\n' (the line splitter consumed it).
    std::string framed = server::frame_line("SUBMIT job 7 reads=/data/r.fq");
    framed.pop_back();
    cases.push_back({"server_line", to_bytes(framed), [](const Bytes& b) {
                       return guard([&]() -> Fingerprint {
                         auto text = server::unframe_line(to_string(b));
                         if (!text) return std::nullopt;
                         std::string re = server::frame_line(*text);
                         re.pop_back();
                         return to_bytes(re);
                       });
                     }});
  }

  return cases;
}

}  // namespace hipmer::testing
