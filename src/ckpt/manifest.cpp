#include "ckpt/manifest.hpp"

#include <charconv>
#include <cstring>

#include "io/wire.hpp"
#include "util/hash.hpp"

namespace hipmer::ckpt {

namespace {

// wire-schema: ckpt_aux_stats writer
void put_aux(io::wire::Writer& w, const AuxStats& aux) {
  w.put_u64(aux.distinct_kmers);
  w.put_pod(aux.singleton_fraction);  // wire: pod double
  w.put_u64(aux.heavy_hitters);
  w.put_u64(aux.num_contigs);
  const auto& cs = aux.contig_stats;
  w.put_u64(cs.num_sequences);
  w.put_u64(cs.total_length);
  w.put_u64(cs.min_length);
  w.put_u64(cs.max_length);
  w.put_pod(cs.mean_length);  // wire: pod double
  w.put_u64(cs.n50);
  w.put_u64(cs.l50);
  w.put_u64(cs.n90);
}

// wire-schema: ckpt_aux_stats reader
AuxStats get_aux(io::wire::Reader& r) {
  AuxStats aux;
  aux.distinct_kmers = r.get_u64_checked("aux distinct_kmers");
  aux.singleton_fraction = r.get_pod_checked<double>("aux singleton_fraction");
  aux.heavy_hitters = r.get_u64_checked("aux heavy_hitters");
  aux.num_contigs = r.get_u64_checked("aux num_contigs");
  auto& cs = aux.contig_stats;
  cs.num_sequences =
      static_cast<std::size_t>(r.get_u64_checked("aux num_sequences"));
  cs.total_length = r.get_u64_checked("aux total_length");
  cs.min_length = r.get_u64_checked("aux min_length");
  cs.max_length = r.get_u64_checked("aux max_length");
  cs.mean_length = r.get_pod_checked<double>("aux mean_length");
  cs.n50 = r.get_u64_checked("aux n50");
  cs.l50 = static_cast<std::size_t>(r.get_u64_checked("aux l50"));
  cs.n90 = r.get_u64_checked("aux n90");
  return aux;
}

/// Parse the round suffix of "<prefix>.<round>" names.
bool parse_round_suffix(const std::string& stage, const char* prefix,
                        int& round) {
  const std::string_view sv(stage);
  const std::string_view pv(prefix);
  if (sv.size() <= pv.size() + 1 || sv.substr(0, pv.size()) != pv ||
      sv[pv.size()] != '.')
    return false;
  const char* first = sv.data() + pv.size() + 1;
  const char* last = sv.data() + sv.size();
  auto [ptr, ec] = std::from_chars(first, last, round);
  return ec == std::errc{} && ptr == last && round >= 0;
}

}  // namespace

std::string stage_alignments(int round) {
  return "alignments." + std::to_string(round);
}

std::string stage_scaffolds(int round) {
  return "scaffolds." + std::to_string(round);
}

int stage_progress(const std::string& stage) {
  if (stage == kStageReads) return kProgressReads;
  if (stage == kStageUfx) return kProgressUfx;
  if (stage == kStageContigs) return kProgressContigs;
  int round = 0;
  if (parse_round_suffix(stage, "alignments", round))
    return progress_alignments(round);
  if (parse_round_suffix(stage, "scaffolds", round))
    return progress_scaffolds(round);
  return -1;
}

const StageEntry* Manifest::latest(const std::string& stage) const {
  const StageEntry* best = nullptr;
  for (const auto& entry : entries) {
    if (entry.stage != stage) continue;
    if (best == nullptr || entry.seq > best->seq) best = &entry;
  }
  return best;
}

std::uint64_t Manifest::next_seq() const {
  std::uint64_t next = 0;
  for (const auto& entry : entries) next = std::max(next, entry.seq + 1);
  return next;
}

// wire-schema: ckpt_manifest writer
std::vector<std::byte> encode_manifest(const Manifest& manifest) {
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  w.put_u32(kManifestMagic);  // wire: magic kManifestMagic
  w.put_u32(kManifestVersion);
  w.put_u32(static_cast<std::uint32_t>(manifest.entries.size()));
  for (const auto& entry : manifest.entries) {
    w.put_bytes(entry.stage);
    w.put_u64(entry.seq);
    w.put_u64(entry.fingerprint);
    w.put_u32(entry.shard_count);
    for (std::uint32_t s = 0; s < entry.shard_count; ++s) {
      w.put_u64(entry.shard_bytes[s]);
      w.put_u32(entry.shard_crcs[s]);
    }
    put_aux(w, entry.aux);
  }
  w.put_u32(util::crc32c(buf.data(), buf.size()));  // wire: crc32
  return buf;
}

// wire-schema: ckpt_manifest reader
std::optional<Manifest> decode_manifest(const std::vector<std::byte>& bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) return std::nullopt;
  // Verify the trailing CRC over everything before it, first: no field of a
  // corrupt manifest is worth interpreting.
  // wire: crc32
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body, sizeof stored);
  if (util::crc32c(bytes.data(), body) != stored) return std::nullopt;

  io::wire::Reader r(bytes.data(), body);
  try {
    const auto magic =
        r.get_u32_checked("manifest magic");  // wire: magic kManifestMagic
    if (magic != kManifestMagic) return std::nullopt;
    if (r.get_u32_checked("manifest version") != kManifestVersion)
      return std::nullopt;
    const std::uint32_t count = r.get_u32_checked("entry count");
    // An entry is at least its stage length prefix, seq, fingerprint and
    // shard count.
    if (!io::wire::count_fits(r, count, 4 + 8 + 8 + 4)) return std::nullopt;
    Manifest manifest;
    manifest.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      StageEntry entry;
      entry.stage = r.get_bytes_checked("entry stage");
      entry.seq = r.get_u64_checked("entry seq");
      entry.fingerprint = r.get_u64_checked("entry fingerprint");
      entry.shard_count = r.get_u32_checked("entry shard count");
      if (entry.shard_count > (1u << 24)) return std::nullopt;
      entry.shard_bytes.resize(entry.shard_count);
      entry.shard_crcs.resize(entry.shard_count);
      for (std::uint32_t s = 0; s < entry.shard_count; ++s) {
        entry.shard_bytes[s] = r.get_u64_checked("shard bytes");
        entry.shard_crcs[s] = r.get_u32_checked("shard crc");
      }
      entry.aux = get_aux(r);
      manifest.entries.push_back(std::move(entry));
    }
    if (!r.done()) return std::nullopt;  // trailing garbage
    return manifest;
  } catch (const io::wire::Error&) {
    return std::nullopt;
  }
}

}  // namespace hipmer::ckpt
