#include "pgas/fabric_wire.hpp"

#include <sstream>

#include "io/wire.hpp"
#include "util/hash.hpp"

namespace hipmer::pgas {

namespace {

std::string_view as_view(const std::vector<std::byte>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::vector<std::byte> to_bytes(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

/// Wire booleans are strict 0/1: any other value means the stream is not
/// what the writer produced, and accepting it would let corrupt bytes
/// decode to the same message (the byte-flip sweeps catch exactly this).
// wire-helper: get_flag u8
bool get_flag(io::wire::Reader& r, const char* field) {
  const auto v = r.get_pod_checked<std::uint8_t>(field);
  if (v > 1)
    throw io::wire::CorruptError(std::string("wire: corrupt: flag '") + field +
                                 "' is neither 0 nor 1");
  return v != 0;
}

}  // namespace

// wire-schema: fabric_frame writer
std::vector<std::byte> encode_frame(const Frame& f) {
  std::vector<std::byte> out;
  out.reserve(kFrameHeaderBytes + f.payload.size() + 4);
  io::wire::Writer w(out);
  w.put_u32(kFrameMagic);
  w.put_u32(static_cast<std::uint32_t>(f.kind));
  w.put_u32(f.channel);
  w.put_u32(f.src);
  w.put_u32(f.dst);
  w.put_bytes(as_view(f.payload));
  w.put_u32(util::crc32c(out.data(), out.size()));
  return out;
}

// wire-schema: fabric_frame reader
Frame decode_frame(const std::byte* data, std::size_t size) {
  io::wire::Reader r(data, size);
  const auto magic = r.get_pod_checked<std::uint32_t>("frame magic");
  if (magic != kFrameMagic)
    throw io::wire::CorruptError("wire: corrupt: fabric frame magic mismatch");
  Frame f;
  const auto kind = r.get_pod_checked<std::uint32_t>("frame kind");
  if (kind < static_cast<std::uint32_t>(FrameKind::kHello) ||
      kind > static_cast<std::uint32_t>(FrameKind::kBye))
    throw io::wire::CorruptError("wire: corrupt: unknown fabric frame kind");
  f.kind = static_cast<FrameKind>(kind);
  f.channel = r.get_pod_checked<std::uint32_t>("frame channel");
  f.src = r.get_pod_checked<std::uint32_t>("frame src");
  f.dst = r.get_pod_checked<std::uint32_t>("frame dst");
  const auto len = r.get_pod_checked<std::uint32_t>("frame payload length");
  r.require(len, "frame payload");
  f.payload.resize(len);
  if (len > 0) r.get_raw(f.payload.data(), len, "frame payload");
  const std::size_t covered = size - r.remaining();
  const auto stored = r.get_pod_checked<std::uint32_t>("frame crc");  // wire: crc32
  const std::uint32_t computed = util::crc32c(data, covered);
  if (stored != computed) {
    std::ostringstream os;
    os << "wire: corrupt: fabric frame crc mismatch (stored 0x" << std::hex
       << stored << ", computed 0x" << computed << ")";
    throw io::wire::CorruptError(os.str());
  }
  if (!r.done())
    throw io::wire::CorruptError("wire: corrupt: trailing bytes after frame");
  return f;
}

// wire-schema: fabric_barrier_record writer
std::vector<std::byte> encode_barrier_record(const BarrierRecordMsg& msg) {
  std::vector<std::byte> out;
  io::wire::Writer w(out);
  w.put_u32(msg.kind);
  w.put_bytes(msg.file);
  w.put_u32(msg.line);
  w.put_bytes(msg.func);
  return out;
}

// wire-schema: fabric_barrier_record reader
BarrierRecordMsg decode_barrier_record(const std::byte* data,
                                       std::size_t size) {
  io::wire::Reader r(data, size);
  BarrierRecordMsg msg;
  msg.kind = r.get_u32_checked("record kind");
  msg.file = r.get_bytes_checked("record file");
  msg.line = r.get_u32_checked("record line");
  msg.func = r.get_bytes_checked("record func");
  if (!r.done())
    throw io::wire::CorruptError(
        "wire: corrupt: trailing bytes after barrier record");
  return msg;
}

// wire-schema: fabric_barrier_collect writer
std::vector<std::byte> encode_barrier_collect(const BarrierCollectMsg& msg) {
  std::vector<std::byte> out;
  io::wire::Writer w(out);
  w.put_pod<std::uint8_t>(msg.slot_changed ? 1 : 0);
  if (msg.slot_changed) {
    w.put_bytes(as_view(msg.slot));
  }
  w.put_pod<std::uint8_t>(msg.has_record ? 1 : 0);
  if (msg.has_record) {
    w.put_bytes(as_view(msg.record));
  }
  return out;
}

// wire-schema: fabric_barrier_collect reader
BarrierCollectMsg decode_barrier_collect(const std::byte* data,
                                         std::size_t size) {
  io::wire::Reader r(data, size);
  BarrierCollectMsg msg;
  msg.slot_changed = get_flag(r, "barrier slot flag");
  if (msg.slot_changed) {
    msg.slot = to_bytes(r.get_bytes_checked("barrier slot"));
  }
  msg.has_record = get_flag(r, "barrier record flag");
  if (msg.has_record) {
    msg.record = to_bytes(r.get_bytes_checked("barrier record"));
  }
  if (!r.done())
    throw io::wire::CorruptError(
        "wire: corrupt: trailing bytes after barrier collect");
  return msg;
}

// wire-schema: fabric_release writer
std::vector<std::byte> encode_release(const ReleaseMsg& msg) {
  std::vector<std::byte> out;
  io::wire::Writer w(out);
  w.put_u32(static_cast<std::uint32_t>(msg.slots.size()));
  for (const auto& [rank, slot] : msg.slots) {
    w.put_u32(rank);
    w.put_bytes(as_view(slot));
  }
  w.put_pod<std::uint8_t>(msg.records_all ? 1 : 0);
  if (msg.records_all) {
    for (const auto& rec : msg.records) {  // wire: loop nranks
      w.put_bytes(as_view(rec));
    }
  }
  return out;
}

// wire-schema: fabric_release reader
ReleaseMsg decode_release(const std::byte* data, std::size_t size,
                          int nranks) {
  io::wire::Reader r(data, size);
  ReleaseMsg msg;
  const auto nchanged = r.get_u32_checked("release count");
  for (std::uint32_t i = 0; i < nchanged; ++i) {
    const auto rank = r.get_u32_checked("release rank");
    auto slot = to_bytes(r.get_bytes_checked("release slot"));
    msg.slots.emplace_back(rank, std::move(slot));
  }
  msg.records_all = get_flag(r, "release record flag");
  if (msg.records_all) {
    for (int rank = 0; rank < nranks; ++rank) {  // wire: loop nranks
      msg.records.push_back(to_bytes(r.get_bytes_checked("release record")));
    }
  }
  if (!r.done())
    throw io::wire::CorruptError(
        "wire: corrupt: trailing bytes after release");
  return msg;
}

// wire-schema: fabric_roster writer
std::vector<std::byte> encode_roster(std::uint32_t nranks) {
  std::vector<std::byte> out;
  io::wire::Writer w(out);
  w.put_u32(nranks);
  return out;
}

// wire-schema: fabric_roster reader
std::uint32_t decode_roster(const std::byte* data, std::size_t size) {
  io::wire::Reader r(data, size);
  const auto nranks = r.get_u32_checked("roster nranks");
  if (!r.done())
    throw io::wire::CorruptError("wire: corrupt: trailing bytes after roster");
  return nranks;
}

// wire-schema: fabric_serial_release writer
std::vector<std::byte> encode_serial_release(
    const std::vector<std::vector<std::byte>>& parts) {
  std::vector<std::byte> out;
  io::wire::Writer w(out);
  w.put_u32(static_cast<std::uint32_t>(parts.size()));
  for (const auto& part : parts) {
    w.put_bytes(as_view(part));
  }
  return out;
}

// wire-schema: fabric_serial_release reader
std::vector<std::vector<std::byte>> decode_serial_release(
    const std::byte* data, std::size_t size) {
  io::wire::Reader r(data, size);
  const auto p = r.get_u32_checked("serial count");
  // Each part carries at least its u32 length prefix: bound the count by
  // the bytes left before it sizes an allocation.
  r.require(std::size_t{p} * 4, "serial parts");
  std::vector<std::vector<std::byte>> parts;
  parts.reserve(p);
  for (std::uint32_t i = 0; i < p; ++i) {
    parts.push_back(to_bytes(r.get_bytes_checked("serial part")));
  }
  if (!r.done())
    throw io::wire::CorruptError(
        "wire: corrupt: trailing bytes after serial release");
  return parts;
}

}  // namespace hipmer::pgas
