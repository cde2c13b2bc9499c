#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "seq/read.hpp"

/// Length-prefixed wire framing for cross-rank byte exchanges.
///
/// Every structure that ships through alltoallv byte streams — reads in the
/// pipeline's scatter/gather paths, contigs in the traversal's renumbering
/// and the bubble merger — frames its records here instead of rolling its
/// own byte format. Records are self-describing on length (a u32 prefix per
/// variable field, PODs verbatim), so payloads may contain any byte value
/// (newlines, NULs), concatenated streams from different senders parse
/// without sentinels, and a truncated buffer is detected instead of
/// misparsed.
///
/// Layout rules:
///   - PODs are memcpy'd verbatim (host byte order: both ends of an
///     exchange are ranks of the same process).
///   - Variable-length fields are [u32 length][bytes].
/// The Writer appends to a caller-owned std::vector<std::byte> (the
/// alltoallv unit), the Reader walks a borrowed buffer.
namespace hipmer::io::wire {

/// Base of every wire decode failure. Two refinements let callers react
/// differently to "the frame is short" (ask the sender again / keep
/// reading) versus "the frame is the right length but the bytes are wrong"
/// (checksum mismatch: retransmit, never trust the contents):
///   - TruncatedError — a field ran off the end of the buffer; the message
///     names the field, so a partial write or chopped stream is
///     diagnosable without a hex dump.
///   - CorruptError — framing that is present but inconsistent (bad magic,
///     CRC mismatch, length fields that disagree).
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class TruncatedError : public Error {
 public:
  TruncatedError(const char* field, std::size_t need, std::size_t have)
      : Error(std::string("wire: truncated: field '") + field + "' needs " +
              std::to_string(need) + " bytes, " + std::to_string(have) +
              " remain") {}
};

class CorruptError : public Error {
 public:
  using Error::Error;
};

class Writer {
 public:
  explicit Writer(std::vector<std::byte>& buf) : buf_(&buf) {}

  template <typename T>
  void put_pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wire PODs must be trivially copyable");
    append(&value, sizeof value);
  }

  void put_u32(std::uint32_t v) { put_pod(v); }
  void put_u64(std::uint64_t v) { put_pod(v); }

  /// [u32 length][bytes] — the framing for variable-length fields.
  void put_bytes(std::string_view bytes) {
    put_u32(static_cast<std::uint32_t>(bytes.size()));
    append(bytes.data(), bytes.size());
  }

 private:
  void append(const void* data, std::size_t n) {
    // resize + memcpy rather than insert(end, p, p + n): the range insert
    // trips GCC 12's -Wstringop-overflow false positive when the growth
    // path is inlined, and this form codegens identically. An empty field
    // may come with a null pointer, which memcpy must not be given.
    if (n == 0) return;
    const std::size_t old = buf_->size();
    buf_->resize(old + n);
    std::memcpy(buf_->data() + old, data, n);
  }

  std::vector<std::byte>* buf_;
};

class Reader {
 public:
  Reader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::byte>& buf)
      : Reader(buf.data(), buf.size()) {}

  [[nodiscard]] bool done() const noexcept { return pos_ >= size_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  /// Set when a read ran off the end of the buffer (truncated/corrupt
  /// stream); all subsequent reads return empty values.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  template <typename T>
  [[nodiscard]] T get_pod() {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wire PODs must be trivially copyable");
    T value{};
    if (!take(&value, sizeof value)) return T{};
    return value;
  }

  [[nodiscard]] std::uint32_t get_u32() { return get_pod<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t get_u64() { return get_pod<std::uint64_t>(); }

  /// Checked variant of the cursor: throw TruncatedError (naming `field`)
  /// unless `n` more bytes are available. The legacy getters above keep
  /// their non-throwing truncated() protocol for streaming callers
  /// (get_reads); new framed decoders (the transport envelope) use this so
  /// the error says *which* field ran off the end.
  void require(std::size_t n, const char* field) const {
    if (truncated_ || n > remaining()) throw TruncatedError(field, n, remaining());
  }

  /// require(n, field) + copy out `n` raw bytes.
  void get_raw(void* out, std::size_t n, const char* field) {
    require(n, field);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  /// require(n, field) + borrow the next `n` bytes in place: the pointer
  /// is valid as long as the buffer the Reader walks.
  [[nodiscard]] const std::byte* get_view(std::size_t n, const char* field) {
    require(n, field);
    const std::byte* view = data_ + pos_;
    pos_ += n;
    return view;
  }

  template <typename T>
  [[nodiscard]] T get_pod_checked(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wire PODs must be trivially copyable");
    T value{};
    get_raw(&value, sizeof value, field);
    return value;
  }

  [[nodiscard]] std::uint32_t get_u32_checked(const char* field) {
    return get_pod_checked<std::uint32_t>(field);
  }
  [[nodiscard]] std::uint64_t get_u64_checked(const char* field) {
    return get_pod_checked<std::uint64_t>(field);
  }

  /// Checked [u32 length][bytes]: throws TruncatedError naming `field` if
  /// either the prefix or the payload runs off the end. The length is
  /// validated *before* any allocation, so a corrupt prefix cannot drive a
  /// huge resize.
  [[nodiscard]] std::string get_bytes_checked(const char* field) {
    const std::uint32_t n = get_u32_checked(field);
    require(n, field);
    std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::string get_bytes() {
    const std::uint32_t n = get_u32();
    std::string out;
    if (truncated_ || n > remaining()) {
      truncated_ = true;
      pos_ = size_;
      return out;
    }
    out.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }

 private:
  bool take(void* out, std::size_t n) {
    if (truncated_ || n > remaining()) {
      truncated_ = true;
      pos_ = size_;
      return false;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool truncated_ = false;
};

/// Reject record counts that could not possibly fit in the remaining bytes
/// (corrupt counts would otherwise trigger huge allocations before the
/// truncation check fires).
[[nodiscard]] inline bool count_fits(const Reader& r, std::uint64_t n,
                                     std::size_t min_record) noexcept {
  return n <= r.remaining() / min_record + 1;
}

// ---- record framings shared across stages ----

/// Sequencing read: three length-prefixed fields (name, bases, quals).
// wire-schema: read_record writer
inline void put_read(Writer& w, const seq::Read& read) {
  w.put_bytes(read.name);
  w.put_bytes(read.seq);
  w.put_bytes(read.quals);
}

/// Streaming (non-throwing) decoder: only for buffers produced in-process
/// by put_read.
// wire-schema: read_record reader trusted
inline seq::Read get_read(Reader& r) {
  seq::Read read;
  read.name = r.get_bytes();
  read.seq = r.get_bytes();
  read.quals = r.get_bytes();
  return read;
}

/// Append every framed read in `buf` to `out`; returns false if the stream
/// was truncated (partial trailing record).
inline bool get_reads(const std::vector<std::byte>& buf,
                      std::vector<seq::Read>& out) {
  Reader r(buf);
  while (!r.done()) {
    auto read = get_read(r);
    if (r.truncated()) return false;
    out.push_back(std::move(read));
  }
  return true;
}

}  // namespace hipmer::io::wire
