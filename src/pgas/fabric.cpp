#include "pgas/fabric.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <map>
#include <sstream>

#include "io/wire.hpp"
#include "pgas/fault.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hipmer::pgas {

namespace {

/// Await deadline: a peer that produces no frame for this long while we
/// block is treated as dead (belt-and-braces under kill -9; the normal
/// path is the router's EOF -> RANKDOWN broadcast).
constexpr int kAwaitDeadlineMs = 600 * 1000;

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd) {
  const int flags = fcntl(fd, F_GETFD, 0);
  if (flags >= 0) fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("fabric: " + what + ": " + std::strerror(errno));
}

/// Fixed-size prefix of every frame: magic, kind, channel, src, dst, len.
constexpr std::size_t kHeaderBytes = kFrameHeaderBytes;

/// Try to pop one complete frame off the front of `buf`. On success the
/// consumed bytes are erased and `raw` (when non-null) receives the exact
/// wire bytes, so a router can forward without re-encoding.
bool pop_frame(std::vector<std::byte>& buf, Frame& out,
               std::vector<std::byte>* raw) {
  if (buf.size() < kHeaderBytes) return false;
  std::uint32_t magic = 0;
  std::uint32_t len = 0;
  std::memcpy(&magic, buf.data(), 4);
  if (magic != kFrameMagic)
    throw io::wire::CorruptError("wire: corrupt: fabric frame magic mismatch");
  std::memcpy(&len, buf.data() + 5 * sizeof(std::uint32_t), 4);
  const std::size_t total = kHeaderBytes + len + sizeof(std::uint32_t);
  if (buf.size() < total) return false;
  out = decode_frame(buf.data(), total);
  if (raw != nullptr) raw->assign(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(total));
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(total));
  return true;
}

/// Blocking read of exactly one frame (handshake only, before the
/// nonblocking regime starts). Throws after `deadline_ms`.
Frame read_frame_blocking(int fd, std::vector<std::byte>& buf,
                          int deadline_ms) {
  Frame f;
  const auto start = std::chrono::steady_clock::now();
  while (!pop_frame(buf, f, nullptr)) {
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (waited > deadline_ms)
      throw std::runtime_error("fabric: handshake timeout");
    struct pollfd p{fd, POLLIN, 0};
    const int rc = poll(&p, 1, 100);
    if (rc <= 0) continue;
    std::byte chunk[4096];
    const ssize_t n = read(fd, chunk, sizeof chunk);
    if (n == 0) throw std::runtime_error("fabric: peer closed during handshake");
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      sys_fail("handshake read");
    }
    buf.insert(buf.end(), chunk, chunk + n);
  }
  return f;
}

void write_fully(int fd, const std::vector<std::byte>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) {
        struct pollfd p{fd, POLLOUT, 0};
        poll(&p, 1, 100);
        continue;
      }
      sys_fail("handshake write");
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

// ---- router (coordinator process) -----------------------------------------

/// Single-threaded frame switch. Per-connection FIFO in and out; never
/// blocks (nonblocking writes with per-connection outbound queues), so a
/// stalled endpoint can delay only its own traffic.
struct SocketFabric::Router {
  struct Conn {
    int fd = -1;
    int rank = -1;
    std::vector<std::byte> rx;
    std::vector<std::byte> tx;
    bool eof = false;
    bool bye = false;
  };

  int nranks = 0;
  std::vector<Conn> conns;  // one per rank, index == rank

  // Barrier round state.
  int arrived = 0;
  std::vector<std::vector<std::byte>> slot_cache;
  std::vector<bool> slot_dirty;
  std::vector<bool> rank_arrived;
  bool records_all = true;
  std::vector<std::vector<std::byte>> record_cache;  // raw encoded records

  // Serial round state.
  int serial_arrived = 0;
  std::vector<std::vector<std::byte>> serial_parts;
  std::vector<bool> serial_in;

  bool down_broadcast = false;
  bool closing = false;  // rank 0 said BYE; drain and exit

  explicit Router(int p)
      : nranks(p),
        conns(static_cast<std::size_t>(p)),
        slot_cache(static_cast<std::size_t>(p)),
        slot_dirty(static_cast<std::size_t>(p), false),
        rank_arrived(static_cast<std::size_t>(p), false),
        record_cache(static_cast<std::size_t>(p)),
        serial_parts(static_cast<std::size_t>(p)),
        serial_in(static_cast<std::size_t>(p), false) {}

  void enqueue(int rank, const std::vector<std::byte>& bytes) {
    Conn& c = conns[static_cast<std::size_t>(rank)];
    if (c.eof || c.bye) return;  // frames to a dead peer evaporate
    c.tx.insert(c.tx.end(), bytes.begin(), bytes.end());
  }

  void broadcast(const std::vector<std::byte>& bytes, int except = -1) {
    for (int r = 0; r < nranks; ++r)
      if (r != except) enqueue(r, bytes);
  }

  void mark_down(int rank) {
    if (down_broadcast) return;
    down_broadcast = true;
    Frame down;
    down.kind = FrameKind::kRankDown;
    down.src = static_cast<std::uint32_t>(rank);
    broadcast(encode_frame(down), rank);
  }

  void on_barrier(int src, const Frame& f) {
    auto msg = decode_barrier_collect(f.payload.data(), f.payload.size());
    if (msg.slot_changed) {
      slot_cache[static_cast<std::size_t>(src)] = std::move(msg.slot);
      slot_dirty[static_cast<std::size_t>(src)] = true;
    }
    if (msg.has_record) {
      record_cache[static_cast<std::size_t>(src)] = std::move(msg.record);
    } else {
      records_all = false;
    }
    if (!rank_arrived[static_cast<std::size_t>(src)]) {
      rank_arrived[static_cast<std::size_t>(src)] = true;
      ++arrived;
    }
    if (arrived < nranks) return;
    // Round complete: release with every slot that changed since the last
    // release plus (when all endpoints provided one) the full record set.
    ReleaseMsg rel_msg;
    rel_msg.records_all = records_all;
    for (int rank = 0; rank < nranks; ++rank) {
      if (!slot_dirty[static_cast<std::size_t>(rank)]) continue;
      rel_msg.slots.emplace_back(static_cast<std::uint32_t>(rank),
                                 slot_cache[static_cast<std::size_t>(rank)]);
      slot_dirty[static_cast<std::size_t>(rank)] = false;
    }
    if (records_all) rel_msg.records = record_cache;
    Frame rel;
    rel.kind = FrameKind::kRelease;
    rel.payload = encode_release(rel_msg);
    arrived = 0;
    std::fill(rank_arrived.begin(), rank_arrived.end(), false);
    records_all = true;
    broadcast(encode_frame(rel));
  }

  void on_serial(int src, const Frame& f) {
    if (!serial_in[static_cast<std::size_t>(src)]) {
      serial_in[static_cast<std::size_t>(src)] = true;
      serial_parts[static_cast<std::size_t>(src)] = f.payload;
      ++serial_arrived;
    }
    if (serial_arrived < nranks) return;
    Frame rel;
    rel.kind = FrameKind::kSerialRelease;
    rel.payload = encode_serial_release(serial_parts);
    for (auto& part : serial_parts) {
      part.clear();
      part.shrink_to_fit();
    }
    serial_arrived = 0;
    std::fill(serial_in.begin(), serial_in.end(), false);
    broadcast(encode_frame(rel));
  }

  void handle(int src, Frame& f, const std::vector<std::byte>& raw) {
    switch (f.kind) {
      case FrameKind::kData:
      case FrameKind::kOneway:
      case FrameKind::kRpcReq:
      case FrameKind::kRpcResp:
        enqueue(static_cast<int>(f.dst), raw);
        break;
      case FrameKind::kBarrier:
        on_barrier(src, f);
        break;
      case FrameKind::kSerial:
        on_serial(src, f);
        break;
      case FrameKind::kRankDown:
        mark_down(static_cast<int>(f.src));
        break;
      case FrameKind::kBye:
        conns[static_cast<std::size_t>(src)].bye = true;
        if (src == 0) closing = true;
        break;
      default:
        break;  // HELLO/ROSTER/RELEASE never reach the router mid-run
    }
  }

  [[nodiscard]] bool finished() const {
    for (const auto& c : conns)
      if (!c.eof && !c.bye) return false;
    return true;
  }

  void loop() {
    auto closing_since = std::chrono::steady_clock::now();
    bool was_closing = false;
    while (!finished()) {
      if (closing && !was_closing) {
        was_closing = true;
        closing_since = std::chrono::steady_clock::now();
      }
      if (was_closing) {
        // Rank 0 is gone; give stragglers a grace period to BYE/EOF, then
        // stop routing (the coordinator will SIGKILL leftovers anyway).
        const auto waited =
            std::chrono::duration_cast<std::chrono::seconds>(
                std::chrono::steady_clock::now() - closing_since)
                .count();
        if (waited > 10) break;
      }
      std::vector<struct pollfd> fds;
      std::vector<int> ranks;
      for (int r = 0; r < nranks; ++r) {
        Conn& c = conns[static_cast<std::size_t>(r)];
        if (c.eof || c.fd < 0) continue;
        short events = POLLIN;
        if (!c.tx.empty()) events |= POLLOUT;
        fds.push_back({c.fd, events, 0});
        ranks.push_back(r);
      }
      if (fds.empty()) break;
      const int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        Conn& c = conns[static_cast<std::size_t>(ranks[i])];
        if ((fds[i].revents & POLLOUT) != 0 && !c.tx.empty()) {
          const ssize_t n = write(c.fd, c.tx.data(), c.tx.size());
          if (n > 0)
            c.tx.erase(c.tx.begin(), c.tx.begin() + n);
          else if (n < 0 && errno != EAGAIN && errno != EINTR)
            c.eof = true;
        }
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          std::byte chunk[65536];
          for (;;) {
            const ssize_t n = read(c.fd, chunk, sizeof chunk);
            if (n > 0) {
              c.rx.insert(c.rx.end(), chunk, chunk + n);
              continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
            // EOF or hard error.
            c.eof = true;
            if (!c.bye) mark_down(ranks[i]);
            break;
          }
          Frame f;
          std::vector<std::byte> raw;
          try {
            while (pop_frame(c.rx, f, &raw)) handle(ranks[i], f, raw);
          } catch (const io::wire::Error& we) {
            // A corrupt byte stream from a peer is indistinguishable from
            // a dying peer: declare it down.
            util::log_warn("fabric router (pid " + std::to_string(getpid()) +
                           "): corrupt frame from rank " +
                           std::to_string(ranks[i]) + ": " + we.what() +
                           "; marking it down");
            c.eof = true;
            if (!c.bye) mark_down(ranks[i]);
          }
        }
        if (c.bye || c.eof) {
          // Flush whatever is queued toward a live peer; drop the rest.
          if (c.eof) {
            c.tx.clear();
          }
        }
      }
    }
    for (auto& c : conns) {
      if (c.fd >= 0) {
        close(c.fd);
        c.fd = -1;
      }
    }
  }
};

// ---- SocketFabric ----------------------------------------------------------

SocketFabric::SocketFabric(int nranks, int my_rank)
    : Fabric(nranks), my_rank_(my_rank) {}

std::unique_ptr<SocketFabric> SocketFabric::coordinator(
    int nranks, const std::string& socket_path,
    const std::vector<std::string>& worker_argv) {
  auto fab = std::unique_ptr<SocketFabric>(new SocketFabric(nranks, 0));
  // Ignore SIGPIPE once: a write to a freshly-dead worker must surface as
  // EPIPE (handled) rather than kill the coordinator.
  signal(SIGPIPE, SIG_IGN);

  const int listen_fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) sys_fail("socket");
  struct sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("fabric: socket path too long: " + socket_path);
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  unlink(socket_path.c_str());
  if (bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0)
    sys_fail("bind " + socket_path);
  if (listen(listen_fd, nranks) != 0) sys_fail("listen");

  // Spawn workers 1..P-1: same binary, same arguments, plus the rank flag.
  for (int r = 1; r < nranks; ++r) {
    std::vector<std::string> argv = worker_argv;
    argv.emplace_back("--worker-rank");
    argv.emplace_back(std::to_string(r));
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (auto& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid < 0) sys_fail("fork");
    if (pid == 0) {
      execv(cargv[0], cargv.data());
      _exit(127);
    }
    fab->pids_.push_back(static_cast<long>(pid));
  }

  // Handshake: accept P-1 connections, read HELLO{rank} from each.
  fab->router_ = std::make_unique<Router>(nranks);
  int accepted = 0;
  const auto start = std::chrono::steady_clock::now();
  while (accepted < nranks - 1) {
    const auto waited = std::chrono::duration_cast<std::chrono::seconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (waited > 60) {
      close(listen_fd);
      throw std::runtime_error("fabric: workers failed to connect");
    }
    struct pollfd p{listen_fd, POLLIN, 0};
    if (poll(&p, 1, 200) <= 0) continue;
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    set_cloexec(fd);
    std::vector<std::byte> buf;
    const Frame hello = read_frame_blocking(fd, buf, 30 * 1000);
    if (hello.kind != FrameKind::kHello)
      throw std::runtime_error("fabric: expected HELLO");
    const int rank = static_cast<int>(hello.src);
    if (rank <= 0 || rank >= nranks)
      throw std::runtime_error("fabric: HELLO with bad rank");
    auto& conn = fab->router_->conns[static_cast<std::size_t>(rank)];
    conn.fd = fd;
    conn.rank = rank;
    conn.rx = std::move(buf);  // bytes past HELLO belong to the stream
    ++accepted;
  }
  close(listen_fd);
  unlink(socket_path.c_str());

  // Rank 0's endpoint is a socketpair to the router.
  int sp[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sp) != 0)
    sys_fail("socketpair");
  fab->fd_ = sp[0];
  fab->router_->conns[0].fd = sp[1];
  fab->router_->conns[0].rank = 0;

  // Confirm the roster, then go nonblocking and start routing.
  Frame roster;
  roster.kind = FrameKind::kRoster;
  roster.payload = encode_roster(static_cast<std::uint32_t>(nranks));
  const auto roster_bytes = encode_frame(roster);
  for (int r = 1; r < nranks; ++r)
    write_fully(fab->router_->conns[static_cast<std::size_t>(r)].fd,
                roster_bytes);
  for (auto& conn : fab->router_->conns)
    if (conn.fd >= 0) set_nonblocking(conn.fd);
  set_nonblocking(fab->fd_);
  Router* router = fab->router_.get();
  fab->router_thread_ = std::thread([router] { router->loop(); });
  return fab;
}

std::unique_ptr<SocketFabric> SocketFabric::worker(
    int nranks, int my_rank, const std::string& socket_path) {
  auto fab = std::unique_ptr<SocketFabric>(new SocketFabric(nranks, my_rank));
  signal(SIGPIPE, SIG_IGN);
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail("socket");
  struct sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("fabric: socket path too long: " + socket_path);
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) ==
        0)
      break;
    const auto waited = std::chrono::duration_cast<std::chrono::seconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (waited > 30) sys_fail("connect " + socket_path);
    struct timespec ts{0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.src = static_cast<std::uint32_t>(my_rank);
  write_fully(fd, encode_frame(hello));
  std::vector<std::byte> buf;
  const Frame roster = read_frame_blocking(fd, buf, 60 * 1000);
  if (roster.kind != FrameKind::kRoster)
    throw std::runtime_error("fabric: expected ROSTER");
  const auto p = decode_roster(roster.payload.data(), roster.payload.size());
  if (static_cast<int>(p) != nranks)
    throw std::runtime_error("fabric: roster team-size mismatch");
  fab->fd_ = fd;
  fab->rx_ = std::move(buf);
  set_nonblocking(fd);
  return fab;
}

SocketFabric::~SocketFabric() {
  if (fd_ >= 0) {
    try {
      Frame bye;
      bye.kind = FrameKind::kBye;
      bye.src = static_cast<std::uint32_t>(my_rank_);
      send_frame(bye);
      pump_writes();
    } catch (...) {
      // Best-effort: the peer may already be gone.
    }
    close(fd_);
    fd_ = -1;
  }
  if (router_thread_.joinable()) router_thread_.join();
}

// ---- endpoint I/O ----------------------------------------------------------

void SocketFabric::read_ready() {
  std::byte chunk[65536];
  for (;;) {
    const ssize_t n = read(fd_, chunk, sizeof chunk);
    if (n > 0) {
      rx_.insert(rx_.end(), chunk, chunk + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
    // EOF / error: the router died (coordinator crashed). Treat as the
    // whole team going down.
    if (down_rank_ < 0) down_rank_ = 0;
    break;
  }
  Frame f;
  while (pop_frame(rx_, f, nullptr)) inbox_.push_back(std::move(f));
}

void SocketFabric::pump_writes() {
  while (!tx_.empty()) {
    const ssize_t n = write(fd_, tx_.data(), tx_.size());
    if (n > 0) {
      tx_.erase(tx_.begin(), tx_.begin() + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      // Full socket: drain inbound while we wait so the router (which may
      // be blocked writing to us) can make progress — the classic
      // both-sides-writing deadlock is broken here.
      struct pollfd p{fd_, POLLIN | POLLOUT, 0};
      if (poll(&p, 1, 100) > 0 && (p.revents & POLLIN) != 0) read_ready();
      continue;
    }
    util::log_warn("fabric endpoint (pid " + std::to_string(getpid()) +
                   ", rank " + std::to_string(my_rank_) +
                   "): write to router failed: " + std::strerror(errno) +
                   "; treating the team as down");
    if (down_rank_ < 0) down_rank_ = 0;
    tx_.clear();
    return;
  }
}

void SocketFabric::send_frame(const Frame& f) {
  const auto bytes = encode_frame(f);
  tx_.insert(tx_.end(), bytes.begin(), bytes.end());
  pump_writes();
}

void SocketFabric::check_down() {
  if (down_rank_ >= 0 && !down_delivered_) {
    down_delivered_ = true;
    if (down_hook_) down_hook_(down_rank_);
    throw RankKilled(my_rank_, "aborting with killed teammate");
  }
  if (down_rank_ >= 0)
    throw RankKilled(my_rank_, "aborting with killed teammate");
}

/// Serve one queued frame. Returns false when the inbox is empty.
bool SocketFabric::dispatch_one() {
  if (inbox_.empty()) return false;
  Frame f = std::move(inbox_.front());
  inbox_.pop_front();
  switch (f.kind) {
    case FrameKind::kData:
      if (data_sink_)
        data_sink_(f.channel, static_cast<int>(f.src), static_cast<int>(f.dst),
                   f.payload.data(), f.payload.size());
      break;
    case FrameKind::kOneway: {
      if (f.channel >= oneways_.size() || !oneways_[f.channel])
        throw std::runtime_error("fabric: oneway to unregistered service");
      oneways_[f.channel](static_cast<int>(f.src), f.payload.data(),
                          f.payload.size());
      break;
    }
    case FrameKind::kRpcReq: {
      if (f.channel >= rpcs_.size() || !rpcs_[f.channel])
        throw std::runtime_error("fabric: rpc to unregistered service");
      Frame resp;
      resp.kind = FrameKind::kRpcResp;
      resp.channel = f.channel;
      resp.src = static_cast<std::uint32_t>(my_rank_);
      resp.dst = f.src;
      resp.payload = rpcs_[f.channel](static_cast<int>(f.src),
                                      f.payload.data(), f.payload.size());
      send_frame(resp);
      break;
    }
    case FrameKind::kRpcResp:
      rpc_resp_ = std::move(f.payload);
      break;
    case FrameKind::kRelease: {
      auto msg = decode_release(f.payload.data(), f.payload.size(), nranks_);
      for (auto& [rank, slot] : msg.slots) {
        if (static_cast<int>(rank) != my_rank_ && slot_writer_)
          slot_writer_(static_cast<int>(rank), std::move(slot));
      }
      if (msg.records_all) {
        for (int rank = 0; rank < nranks_; ++rank) {
          if (rank == my_rank_ || !record_installer_) continue;
          const auto& rec = msg.records[static_cast<std::size_t>(rank)];
          const auto record = decode_barrier_record(rec.data(), rec.size());
          record_installer_(rank, record.kind, record.file, record.line,
                            record.func);
        }
      }
      released_ = true;
      break;
    }
    case FrameKind::kSerialRelease:
      serial_resp_ = decode_serial_release(f.payload.data(), f.payload.size());
      break;
    case FrameKind::kRankDown:
      if (down_rank_ < 0) down_rank_ = static_cast<int>(f.src);
      break;
    default:
      break;
  }
  return true;
}

void SocketFabric::await(const std::function<bool()>& done) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    while (dispatch_one()) {
      if (done()) return;
      check_down();
    }
    if (done()) return;
    check_down();
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (waited > kAwaitDeadlineMs)
      throw std::runtime_error("fabric: await deadline exceeded");
    struct pollfd p{fd_, POLLIN, 0};
    const int rc = poll(&p, 1, 200);
    if (rc < 0 && errno != EINTR) sys_fail("poll");
    if (rc > 0) read_ready();
  }
}

// ---- Fabric interface ------------------------------------------------------

void SocketFabric::ship(std::uint32_t channel, int src, int dst,
                        const std::vector<std::byte>& envelope) {
  assert(dst != my_rank_);
  Frame f;
  f.kind = FrameKind::kData;
  f.channel = channel;
  f.src = static_cast<std::uint32_t>(src);
  f.dst = static_cast<std::uint32_t>(dst);
  f.payload = envelope;
  send_frame(f);
}

void SocketFabric::send_oneway(std::uint32_t service, int dst,
                               std::vector<std::byte> payload) {
  assert(dst != my_rank_);
  Frame f;
  f.kind = FrameKind::kOneway;
  f.channel = service;
  f.src = static_cast<std::uint32_t>(my_rank_);
  f.dst = static_cast<std::uint32_t>(dst);
  f.payload = std::move(payload);
  send_frame(f);
}

std::vector<std::byte> SocketFabric::rpc(std::uint32_t service, int dst,
                                         std::vector<std::byte> payload) {
  assert(dst != my_rank_);
  // One outstanding request per process: the single rank thread issues an
  // RPC and serves inbound frames (including peers' RPCs — handlers never
  // block) until the response lands, so there is no nesting.
  assert(!rpc_pending_);
  rpc_pending_ = true;
  rpc_resp_.reset();
  Frame f;
  f.kind = FrameKind::kRpcReq;
  f.channel = service;
  f.src = static_cast<std::uint32_t>(my_rank_);
  f.dst = static_cast<std::uint32_t>(dst);
  f.payload = std::move(payload);
  send_frame(f);
  try {
    await([this] { return rpc_resp_.has_value(); });
  } catch (...) {
    rpc_pending_ = false;
    throw;
  }
  rpc_pending_ = false;
  auto resp = std::move(*rpc_resp_);
  rpc_resp_.reset();
  return resp;
}

void SocketFabric::poll_until(const std::function<bool()>& done) {
  await(done);
}

void SocketFabric::progress() {
  struct pollfd p{fd_, POLLIN, 0};
  if (poll(&p, 1, 0) > 0) read_ready();
  while (dispatch_one()) {
  }
  check_down();
}

void SocketFabric::barrier(const BarrierPoint& pt) {
  Frame f;
  f.kind = FrameKind::kBarrier;
  f.src = static_cast<std::uint32_t>(my_rank_);
  const auto& slot = *pt.slot;
  BarrierCollectMsg msg;
  msg.slot_changed = !have_pub_ || slot != last_pub_;
  if (msg.slot_changed) {
    msg.slot = slot;
    last_pub_ = slot;
    have_pub_ = true;
  }
  msg.has_record = pt.has_record;
  if (pt.has_record) {
    BarrierRecordMsg record;
    record.kind = pt.record_kind;
    record.file = pt.record_file;
    record.line = pt.record_line;
    record.func = pt.record_func;
    msg.record = encode_barrier_record(record);
  }
  f.payload = encode_barrier_collect(msg);
  released_ = false;
  send_frame(f);
  await([this] { return released_; });
}

void SocketFabric::abandon(int rank) { announce_down(rank); }

std::vector<std::vector<std::byte>> SocketFabric::serial_exchange(
    std::vector<std::byte> mine) {
  Frame f;
  f.kind = FrameKind::kSerial;
  f.src = static_cast<std::uint32_t>(my_rank_);
  f.payload = std::move(mine);
  serial_resp_.reset();
  send_frame(f);
  await([this] { return serial_resp_.has_value(); });
  auto parts = std::move(*serial_resp_);
  serial_resp_.reset();
  return parts;
}

void SocketFabric::announce_down(int rank) {
  if (announced_down_) return;
  announced_down_ = true;
  try {
    Frame f;
    f.kind = FrameKind::kRankDown;
    f.src = static_cast<std::uint32_t>(rank);
    send_frame(f);
    pump_writes();
  } catch (...) {
    // The router may already be gone; the EOF path covers us.
  }
}

}  // namespace hipmer::pgas
