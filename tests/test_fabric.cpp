// Fabric tests: frame codec hardening (every-bit-flip and truncation
// sweeps over recorded wire bytes), the worker endpoint's handshake and
// frame protocol against an in-process fake coordinator, and end-to-end
// multi-process assembly through the CLI — byte-identical output across
// fabrics, including under a pinned chaos schedule and a kill -9'd worker
// that resumes from checkpoint.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/wire.hpp"
#include "pgas/fabric.hpp"
#include "pgas/fault.hpp"

namespace hipmer::pgas {
namespace {

Frame sample_frame(FrameKind kind) {
  Frame f;
  f.kind = kind;
  f.channel = 7;
  f.src = 2;
  f.dst = 5;
  for (int i = 0; i < 37; ++i)
    f.payload.push_back(static_cast<std::byte>(i * 13 + 1));
  return f;
}

TEST(FrameCodec, RoundTripsEveryKind) {
  for (auto kind : {FrameKind::kHello, FrameKind::kRoster, FrameKind::kData,
                    FrameKind::kBarrier, FrameKind::kRelease,
                    FrameKind::kSerial, FrameKind::kSerialRelease,
                    FrameKind::kOneway, FrameKind::kRpcReq,
                    FrameKind::kRpcResp, FrameKind::kRankDown,
                    FrameKind::kBye}) {
    const Frame f = sample_frame(kind);
    const auto bytes = encode_frame(f);
    const Frame g = decode_frame(bytes.data(), bytes.size());
    EXPECT_EQ(g.kind, f.kind);
    EXPECT_EQ(g.channel, f.channel);
    EXPECT_EQ(g.src, f.src);
    EXPECT_EQ(g.dst, f.dst);
    EXPECT_EQ(g.payload, f.payload);
  }
}

TEST(FrameCodec, EmptyPayloadRoundTrips) {
  Frame f;
  f.kind = FrameKind::kBye;
  f.src = 3;
  const auto bytes = encode_frame(f);
  const Frame g = decode_frame(bytes.data(), bytes.size());
  EXPECT_EQ(g.kind, FrameKind::kBye);
  EXPECT_TRUE(g.payload.empty());
}

// Every single-bit corruption of a recorded frame must be rejected — the
// crc32c trailer covers the header and payload, the magic gates the
// stream, and the length field is cross-checked against the buffer.
TEST(FrameCodec, EveryBitFlipIsRejected) {
  const auto bytes = encode_frame(sample_frame(FrameKind::kData));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = bytes;
      flipped[i] ^= static_cast<std::byte>(1u << bit);
      EXPECT_THROW(decode_frame(flipped.data(), flipped.size()),
                   io::wire::Error)
          << "byte " << i << " bit " << bit << " accepted after flip";
    }
  }
}

// Every proper prefix of a recorded frame must fail as truncated or
// corrupt — never decode, never read past the end.
TEST(FrameCodec, EveryTruncationIsRejected) {
  const auto bytes = encode_frame(sample_frame(FrameKind::kOneway));
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(decode_frame(bytes.data(), n), io::wire::Error)
        << "prefix of " << n << " bytes accepted";
  }
}

// Each serial-release part carries at least its u32 length prefix, so a
// part count beyond a quarter of the bytes left fails as truncated before
// it sizes an allocation.
TEST(FrameCodec, SerialReleaseCountBeyondBytesIsTruncated) {
  std::vector<std::byte> body;
  io::wire::Writer w(body);
  w.put_u32(0xFFFFFFFFu);
  w.put_u32(0);
  EXPECT_THROW((void)decode_serial_release(body.data(), body.size()),
               io::wire::TruncatedError);
}

TEST(FrameCodec, TrailingGarbageIsRejected) {
  auto bytes = encode_frame(sample_frame(FrameKind::kData));
  bytes.push_back(std::byte{0xAB});
  EXPECT_THROW(decode_frame(bytes.data(), bytes.size()), io::wire::Error);
}

// ---- endpoint protocol against a fake coordinator -------------------------

/// Speaks the coordinator's half of the socket protocol from a plain
/// blocking fd, so the worker endpoint can be exercised hermetically.
class FakeCoordinator {
 public:
  explicit FakeCoordinator(int nranks) : nranks_(nranks) {
    path_ = "/tmp/hipmer-fabric-test-" + std::to_string(getpid()) + "-" +
            std::to_string(++instance_counter_) + ".sock";
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    struct sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    unlink(path_.c_str());
    if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
        listen(listen_fd_, 1) != 0)
      throw std::runtime_error("FakeCoordinator: bind/listen failed");
  }

  ~FakeCoordinator() {
    if (fd_ >= 0) close(fd_);
    if (listen_fd_ >= 0) close(listen_fd_);
    unlink(path_.c_str());
  }

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Accept the worker, read its HELLO, reply ROSTER (optionally lying
  /// about the team size).
  void handshake(int roster_nranks = -1) {
    fd_ = accept(listen_fd_, nullptr, nullptr);
    ASSERT_GE(fd_, 0);
    const Frame hello = read_frame();
    ASSERT_EQ(hello.kind, FrameKind::kHello);
    hello_rank_ = static_cast<int>(hello.src);
    Frame roster;
    roster.kind = FrameKind::kRoster;
    io::wire::Writer w(roster.payload);
    w.put_u32(static_cast<std::uint32_t>(
        roster_nranks < 0 ? nranks_ : roster_nranks));
    send(roster);
  }

  void send(const Frame& f) { send_raw(encode_frame(f)); }

  /// Ship arbitrary bytes — corrupt frames, split frames, garbage.
  void send_raw(const std::vector<std::byte>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = write(fd_, bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  Frame read_frame() {
    Frame f;
    while (!try_pop(f)) {
      struct pollfd p{fd_, POLLIN, 0};
      if (poll(&p, 1, 5000) <= 0)
        throw std::runtime_error("FakeCoordinator: read timeout");
      std::byte chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("FakeCoordinator: peer closed");
      rx_.insert(rx_.end(), chunk, chunk + n);
    }
    return f;
  }

  [[nodiscard]] int hello_rank() const { return hello_rank_; }

 private:
  bool try_pop(Frame& out) {
    constexpr std::size_t header = 6 * sizeof(std::uint32_t);
    if (rx_.size() < header) return false;
    std::uint32_t len = 0;
    std::memcpy(&len, rx_.data() + 5 * sizeof(std::uint32_t), 4);
    const std::size_t total = header + len + sizeof(std::uint32_t);
    if (rx_.size() < total) return false;
    out = decode_frame(rx_.data(), total);
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(total));
    return true;
  }

  static inline int instance_counter_ = 0;
  int nranks_;
  std::string path_;
  int listen_fd_ = -1;
  int fd_ = -1;
  int hello_rank_ = -1;
  std::vector<std::byte> rx_;
};

TEST(SocketEndpoint, HandshakeHelloRoster) {
  FakeCoordinator coord(4);
  std::unique_ptr<SocketFabric> fab;
  std::thread t([&] { fab = SocketFabric::worker(4, 2, coord.path()); });
  coord.handshake();
  t.join();
  ASSERT_NE(fab, nullptr);
  EXPECT_EQ(coord.hello_rank(), 2);
  EXPECT_TRUE(fab->multiprocess());
  EXPECT_EQ(fab->my_rank(), 2);
  EXPECT_TRUE(fab->is_local(2));
  EXPECT_FALSE(fab->is_local(0));
}

TEST(SocketEndpoint, RosterTeamSizeMismatchThrows) {
  FakeCoordinator coord(4);
  std::unique_ptr<SocketFabric> fab;
  std::string error;
  std::thread t([&] {
    try {
      fab = SocketFabric::worker(4, 1, coord.path());
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  coord.handshake(/*roster_nranks=*/8);
  t.join();
  EXPECT_EQ(fab, nullptr);
  EXPECT_NE(error.find("team-size mismatch"), std::string::npos) << error;
}

TEST(SocketEndpoint, SerialExchangeRoundTrip) {
  FakeCoordinator coord(2);
  std::unique_ptr<SocketFabric> fab;
  std::thread t([&] { fab = SocketFabric::worker(2, 1, coord.path()); });
  coord.handshake();
  t.join();
  ASSERT_NE(fab, nullptr);

  // The endpoint blocks in serial_exchange until the router releases it;
  // drive the router's half from this thread.
  std::vector<std::vector<std::byte>> got;
  std::thread worker_thread([&] {
    std::vector<std::byte> mine{std::byte{0x11}, std::byte{0x22}};
    got = fab->serial_exchange(std::move(mine));
  });
  const Frame serial = coord.read_frame();
  EXPECT_EQ(serial.kind, FrameKind::kSerial);
  EXPECT_EQ(serial.src, 1u);
  ASSERT_EQ(serial.payload.size(), 2u);
  EXPECT_EQ(serial.payload[0], std::byte{0x11});

  Frame rel;
  rel.kind = FrameKind::kSerialRelease;
  io::wire::Writer w(rel.payload);
  w.put_u32(2);
  w.put_bytes(std::string_view("\x0a", 1));       // rank 0's part
  w.put_bytes(std::string_view("\x11\x22", 2));   // rank 1's part (echo)
  coord.send(rel);
  worker_thread.join();

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::vector<std::byte>{std::byte{0x0a}}));
  EXPECT_EQ(got[1], (std::vector<std::byte>{std::byte{0x11}, std::byte{0x22}}));
}

TEST(SocketEndpoint, RankDownSurfacesAsRankKilled) {
  FakeCoordinator coord(2);
  std::unique_ptr<SocketFabric> fab;
  std::thread t([&] { fab = SocketFabric::worker(2, 1, coord.path()); });
  coord.handshake();
  t.join();
  ASSERT_NE(fab, nullptr);

  int hook_rank = -1;
  fab->set_down_hook([&](int r) { hook_rank = r; });

  Frame down;
  down.kind = FrameKind::kRankDown;
  down.src = 0;
  coord.send(down);

  EXPECT_THROW(fab->poll_until([] { return false; }), RankKilled);
  EXPECT_EQ(hook_rank, 0);
}

TEST(SocketEndpoint, CoordinatorEofSurfacesAsRankKilled) {
  auto coord = std::make_unique<FakeCoordinator>(2);
  std::unique_ptr<SocketFabric> fab;
  std::thread t([&] { fab = SocketFabric::worker(2, 1, coord->path()); });
  coord->handshake();
  t.join();
  ASSERT_NE(fab, nullptr);
  coord.reset();  // closes the socket: the router "died"
  EXPECT_THROW(fab->poll_until([] { return false; }), RankKilled);
}

TEST(SocketEndpoint, OnewayDispatchesToRegisteredService) {
  FakeCoordinator coord(2);
  std::unique_ptr<SocketFabric> fab;
  std::thread t([&] { fab = SocketFabric::worker(2, 1, coord.path()); });
  coord.handshake();
  t.join();
  ASSERT_NE(fab, nullptr);

  int from = -1;
  std::vector<std::byte> received;
  const auto service = fab->register_oneway(
      [&](int src, const std::byte* data, std::size_t size) {
        from = src;
        received.assign(data, data + size);
      });

  Frame msg;
  msg.kind = FrameKind::kOneway;
  msg.channel = service;
  msg.src = 0;
  msg.dst = 1;
  msg.payload = {std::byte{0x5a}, std::byte{0xa5}};
  coord.send(msg);

  fab->poll_until([&] { return from >= 0; });
  EXPECT_EQ(from, 0);
  EXPECT_EQ(received, msg.payload);
}

// A frame split across many small writes must reassemble: the endpoint
// buffers partial frames until the length-prefixed total arrives.
TEST(SocketEndpoint, SplitFrameReassembles) {
  FakeCoordinator coord(2);
  std::unique_ptr<SocketFabric> fab;
  std::thread t([&] { fab = SocketFabric::worker(2, 1, coord.path()); });
  coord.handshake();
  t.join();
  ASSERT_NE(fab, nullptr);

  int from = -1;
  const auto service = fab->register_oneway(
      [&](int src, const std::byte*, std::size_t) { from = src; });

  Frame msg;
  msg.kind = FrameKind::kOneway;
  msg.channel = service;
  msg.src = 0;
  msg.dst = 1;
  for (int i = 0; i < 100; ++i) msg.payload.push_back(std::byte{0x7f});
  const auto bytes = encode_frame(msg);
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    const auto end = std::min(bytes.size(), i + 7);
    coord.send_raw({bytes.begin() + static_cast<std::ptrdiff_t>(i),
                    bytes.begin() + static_cast<std::ptrdiff_t>(end)});
  }
  fab->poll_until([&] { return from >= 0; });
  EXPECT_EQ(from, 0);
}

// A corrupted byte on the wire must surface as an error on the serving
// endpoint, never decode into a different frame.
TEST(SocketEndpoint, CorruptStreamThrowsWhileServing) {
  FakeCoordinator coord(2);
  std::unique_ptr<SocketFabric> fab;
  std::thread t([&] { fab = SocketFabric::worker(2, 1, coord.path()); });
  coord.handshake();
  t.join();
  ASSERT_NE(fab, nullptr);

  Frame msg;
  msg.kind = FrameKind::kOneway;
  msg.src = 0;
  msg.dst = 1;
  msg.payload = {std::byte{1}, std::byte{2}, std::byte{3}};
  auto bytes = encode_frame(msg);
  bytes[bytes.size() - 6] ^= std::byte{0x40};  // flip one payload bit
  coord.send_raw(bytes);
  EXPECT_THROW(fab->poll_until([] { return false; }), io::wire::Error);
}

// ---- end-to-end through the CLI -------------------------------------------

#ifdef HIPMER_CLI_BIN

class FabricEndToEnd : public ::testing::Test {
 protected:
  static std::string dir_;
  static std::string fastq_;

  static void SetUpTestSuite() {
    char tmpl[] = "/tmp/hipmer-fabric-e2e-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    ASSERT_EQ(run(std::string(HIPMER_CLI_BIN) + " simulate human --genome " +
                  "20000 --seed 11 --out-dir " + dir_),
              0);
    // simulate prints "wrote <path> (insert N)"; find the FASTQ it wrote.
    fastq_ = dir_ + "/human_like_pe395.fastq";
    std::ifstream probe(fastq_);
    ASSERT_TRUE(probe.good()) << "simulated FASTQ missing: " << fastq_;
  }

  static void TearDownTestSuite() {
    if (!dir_.empty()) run("rm -rf " + dir_);
  }

  static int run(const std::string& cmd) {
    const int rc = std::system((cmd + " > /dev/null 2>&1").c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  static std::string assemble_cmd(const std::string& out,
                                  const std::string& extra,
                                  const std::string& min_count = "2") {
    return std::string(HIPMER_CLI_BIN) + " assemble --reads " + fastq_ +
           " --insert 395 --k 21 --ranks 4 --min-count " + min_count +
           " --out " + dir_ + "/" + out + " " + extra;
  }

  static std::string slurp(const std::string& name) {
    std::ifstream in(dir_ + "/" + name, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

std::string FabricEndToEnd::dir_;
std::string FabricEndToEnd::fastq_;

TEST_F(FabricEndToEnd, ProcFabricMatchesThreadsByteForByte) {
  ASSERT_EQ(run(assemble_cmd("threads.fasta", "")), 0);
  ASSERT_EQ(run(assemble_cmd("proc.fasta", "--fabric proc")), 0);
  const auto threads = slurp("threads.fasta");
  const auto proc = slurp("proc.fasta");
  ASSERT_FALSE(threads.empty());
  EXPECT_EQ(proc, threads);
}

TEST_F(FabricEndToEnd, PinnedChaosScheduleMatchesAcrossFabrics) {
  const std::string chaos =
      "--chaos-spec drop=0.02,dup=0.01,reorder=0.02 --chaos-seed 1299721";
  ASSERT_EQ(run(assemble_cmd("threads_chaos.fasta", chaos)), 0);
  ASSERT_EQ(run(assemble_cmd("proc_chaos.fasta", chaos + " --fabric proc")),
            0);
  const auto threads = slurp("threads_chaos.fasta");
  const auto proc = slurp("proc_chaos.fasta");
  ASSERT_FALSE(threads.empty());
  EXPECT_EQ(proc, threads);
}

TEST_F(FabricEndToEnd, KilledWorkerResumesFromCheckpointIdentically) {
  ASSERT_EQ(run(assemble_cmd("kill_ref.fasta", "")), 0);
  ASSERT_EQ(
      run(assemble_cmd("kill_proc.fasta",
                       "--fabric proc --checkpoint-dir " + dir_ +
                           "/ckpt --kill 2@contig_generation:0:1,hard")),
      0);
  const auto ref = slurp("kill_ref.fasta");
  const auto resumed = slurp("kill_proc.fasta");
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(resumed, ref);
}

// `--min-count auto`: every worker resolves the cutoff itself from the
// gathered histogram, so the processes must agree with the threads fabric.
TEST_F(FabricEndToEnd, AutoMinCountProcMatchesThreadsByteForByte) {
  ASSERT_EQ(run(assemble_cmd("auto_threads.fasta", "", "auto")), 0);
  ASSERT_EQ(run(assemble_cmd("auto_proc.fasta", "--fabric proc", "auto")), 0);
  const auto threads = slurp("auto_threads.fasta");
  ASSERT_FALSE(threads.empty());
  EXPECT_EQ(slurp("auto_proc.fasta"), threads);
}

TEST_F(FabricEndToEnd, AutoMinCountKilledWorkerResumesIdentically) {
  ASSERT_EQ(run(assemble_cmd("auto_kill_ref.fasta", "", "auto")), 0);
  ASSERT_EQ(run(assemble_cmd("auto_kill_proc.fasta",
                             "--fabric proc --checkpoint-dir " + dir_ +
                                 "/auto_ckpt --kill "
                                 "2@contig_generation:0:1,hard",
                             "auto")),
            0);
  const auto ref = slurp("auto_kill_ref.fasta");
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(slurp("auto_kill_proc.fasta"), ref);
}

TEST_F(FabricEndToEnd, MinCountMustBeAutoOrPositiveInteger) {
  // Exit 2 is the usage error; before validation "abc" parsed as 0.
  for (const char* bad : {"abc", "0", "-3", "2x", "1.5"})
    EXPECT_EQ(run(assemble_cmd("bad.fasta", "", bad)), 2) << bad;
  std::ifstream out(dir_ + "/bad.fasta");
  EXPECT_FALSE(out.good()) << "a rejected run must not write output";
  ASSERT_EQ(run(assemble_cmd("one.fasta", "", "1")), 0);
  EXPECT_FALSE(slurp("one.fasta").empty());
}

#endif  // HIPMER_CLI_BIN

}  // namespace
}  // namespace hipmer::pgas
