#include "pgas/transport.hpp"

#include <sstream>
#include <stdexcept>

#include "pgas/fabric.hpp"

namespace hipmer::pgas {

// Header (magic, channel, src, dst, seq, payload length) plus trailing CRC.
constexpr std::size_t kEnvelopeOverhead = 4 * 4 + 8 + 4 + 4;

// wire-schema: transport_envelope writer
std::vector<std::byte> frame_envelope(const Envelope& env) {
  std::vector<std::byte> out;
  out.reserve(kEnvelopeOverhead + env.payload.size());
  io::wire::Writer w(out);
  w.put_u32(kEnvelopeMagic);
  w.put_u32(env.channel);
  w.put_u32(env.src);
  w.put_u32(env.dst);
  w.put_u64(env.seq);
  w.put_bytes(std::string_view(
      reinterpret_cast<const char*>(env.payload.data()), env.payload.size()));
  w.put_u32(util::crc32c(out.data(), out.size()));
  return out;
}

// wire-schema: transport_envelope reader
EnvelopeView decode_envelope_view(const std::byte* data, std::size_t size) {
  io::wire::Reader r(data, size);
  const auto magic = r.get_pod_checked<std::uint32_t>("envelope magic");
  if (magic != kEnvelopeMagic)
    throw io::wire::CorruptError("wire: corrupt: envelope magic mismatch");
  EnvelopeView env;
  env.channel = r.get_pod_checked<std::uint32_t>("envelope channel");
  env.src = r.get_pod_checked<std::uint32_t>("envelope src");
  env.dst = r.get_pod_checked<std::uint32_t>("envelope dst");
  env.seq = r.get_pod_checked<std::uint64_t>("envelope seq");
  const auto len = r.get_pod_checked<std::uint32_t>("envelope payload length");
  env.payload = r.get_view(len, "envelope payload");
  env.payload_size = len;
  const std::size_t covered = size - r.remaining();
  const auto stored = r.get_pod_checked<std::uint32_t>("envelope crc");  // wire: crc32
  const std::uint32_t computed = util::crc32c(data, covered);
  if (stored != computed) {
    std::ostringstream os;
    os << "wire: corrupt: envelope crc mismatch (stored 0x" << std::hex
       << stored << ", computed 0x" << computed << ")";
    throw io::wire::CorruptError(os.str());
  }
  if (!r.done())
    throw io::wire::CorruptError("wire: corrupt: trailing bytes after envelope");
  return env;
}

Envelope to_envelope(const EnvelopeView& view) {
  Envelope env;
  env.channel = view.channel;
  env.src = view.src;
  env.dst = view.dst;
  env.seq = view.seq;
  env.payload.assign(view.payload, view.payload + view.payload_size);
  return env;
}

Envelope decode_envelope(const std::byte* data, std::size_t size) {
  return to_envelope(decode_envelope_view(data, size));
}

void Transport::attach_fabric(Fabric& fabric) {
  fabric_ = &fabric;
  multiproc_ = fabric.multiprocess();
  my_rank_ = fabric.my_rank();
}

void Transport::set_handler(ChannelId ch, WireHandler fn) {
  std::lock_guard<std::mutex> lock(open_mu_);
  channels_[ch]->handler = std::move(fn);
}

void Transport::on_wire(ChannelId ch, int src, int dst,
                        const std::byte* data, std::size_t size,
                        CommStats& stats) {
  Channel& chan = channel(ch);
  assert(chan.handler);
  // This process owns the receiver half of link (ch, src, dst): recv seq
  // and reorder buffer. The sender half lives in src's process.
  Link& link = link_of(chan, src, dst);
  receive(ch, link, data, size, stats,
          [&](int d, const std::byte* p, std::size_t n) {
            chan.handler(src, d, p, n);
          });
}

void Transport::ship_remote(ChannelId ch, int dst,
                            const std::vector<std::byte>& wire) {
  fabric_->ship(ch, my_rank_, dst, wire);
}

void Transport::release_limbo_remote(ChannelId ch, Link& link, int dst) {
  for (auto& held : link.limbo) --held.countdown;
  while (!link.limbo.empty() && link.limbo.front().countdown <= 0) {
    auto env = std::move(link.limbo.front().env);
    link.limbo.pop_front();
    ship_remote(ch, dst, env);
  }
}

void Transport::send_remote(ChannelId ch, Channel& chan, Link& link, int src,
                            int dst, std::vector<std::byte>&& wire,
                            std::uint64_t seq, CommStats& stats) {
  // Mirror of send()'s fate loop. Because fates are pure hashes of
  // (seed, channel, src, dst, seq, attempt), the sender knows each
  // attempt's outcome without an ack: a delivered or duplicated frame is
  // acked, a corrupted frame will fail the receiver's CRC (ship it anyway
  // so the receiver counts the corruption), a dropped frame never leaves
  // this process. Retry counts, histograms and backoff accounting match
  // the threads fabric exactly for the same seed.
  const bool lossy =
      blackholed(src, dst) || (chaos_on_ && chan.probs.any());
  if (!lossy) {
    ship_remote(ch, dst, wire);
    chan.hist[0].fetch_add(1, std::memory_order_relaxed);
    release_limbo_remote(ch, link, dst);
    return;
  }

  int attempt = 0;
  for (;;) {
    bool acked = false;
    bool in_network = false;
    ChaosFate fate = blackholed(src, dst)
                         ? ChaosFate::kDrop
                         : chaos_fate(chan.probs, plan_.seed, ch, src, dst,
                                      seq, attempt);
    switch (fate) {
      case ChaosFate::kDeliver:
        ship_remote(ch, dst, wire);
        acked = true;
        break;
      case ChaosFate::kDrop:
        break;  // lost in the fabric
      case ChaosFate::kDuplicate:
        ship_remote(ch, dst, wire);
        ship_remote(ch, dst, wire);  // receiver dedups the second copy
        acked = true;
        break;
      case ChaosFate::kCorrupt: {
        // Same byte-flip the threads fabric applies; the fabric frame's
        // own CRC is computed over the already-corrupted envelope, so the
        // frame passes and the *envelope* CRC fails at the receiver.
        std::vector<std::byte> bad = wire;
        const std::uint64_t h =
            chaos_mix(plan_.seed, ch, src, dst, seq,
                      0x636f7272ULL ^ static_cast<std::uint64_t>(attempt));
        const std::size_t pos = static_cast<std::size_t>(h % bad.size());
        const auto bit = static_cast<unsigned>((h >> 32) & 7);
        bad[pos] ^= static_cast<std::byte>(1u << bit);
        ship_remote(ch, dst, bad);
        break;
      }
      case ChaosFate::kReorder:
        link.limbo.push_back(Link::Held{std::move(wire), 1});
        in_network = true;
        break;
      case ChaosFate::kDelay:
        link.limbo.push_back(Link::Held{std::move(wire), 2});
        in_network = true;
        break;
    }
    if (in_network) return;  // ships on a later release/drain
    if (acked) {
      const std::size_t bucket =
          static_cast<std::size_t>(attempt) < kHistBuckets - 1
              ? static_cast<std::size_t>(attempt)
              : kHistBuckets - 1;
      chan.hist[bucket].fetch_add(1, std::memory_order_relaxed);
      release_limbo_remote(ch, link, dst);
      return;
    }
    ++attempt;
    stats.add_transport_retry();
    chan.backoff_ticks.fetch_add(backoff_ticks(ch, src, dst, seq, attempt),
                                 std::memory_order_relaxed);
    if (attempt >= max_attempts_)
      declare_suspect(src, dst, chan, link, attempt);
  }
}

Transport::ChannelId Transport::open_channel(std::string name) {
  std::lock_guard<std::mutex> lock(open_mu_);
  const auto id = count_.load(std::memory_order_relaxed);
  if (id >= kMaxChannels)
    throw std::runtime_error("transport: channel registry exhausted");
  auto chan = std::make_unique<Channel>();
  chan->name = std::move(name);
  chan->probs = plan_.resolve(chan->name);
  chan->rows.resize(static_cast<std::size_t>(nranks_));
  channels_.push_back(std::move(chan));
  count_.store(id + 1, std::memory_order_release);
  return id;
}

void Transport::set_channel_name(ChannelId ch, std::string name) {
  std::lock_guard<std::mutex> lock(open_mu_);
  Channel& chan = *channels_[ch];
  chan.name = std::move(name);
  chan.probs = plan_.resolve(chan.name);
}

void Transport::set_plan(ChaosPlan plan) {
  plan_ = std::move(plan);
  chaos_on_ = plan_.enabled();
  stage_seen_.clear();
  blackhole_rank_ = -1;
  suspect_peer_.store(-1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(open_mu_);
  for (auto& chan : channels_) chan->probs = plan_.resolve(chan->name);
}

void Transport::reset_for_job() {
  std::lock_guard<std::mutex> lock(open_mu_);
  channels_.clear();
  count_.store(0, std::memory_order_release);
  stage_seen_.clear();
  blackhole_rank_ = -1;
  suspect_peer_.store(-1, std::memory_order_relaxed);
}

void Transport::begin_stage(const std::string& name) {
  if (!chaos_on_) return;
  const int occurrence = stage_seen_[name]++;
  for (const auto& rule : plan_.blackholes) {
    if (!rule.armed()) continue;
    if (rule.stage == name && rule.occurrence == occurrence)
      blackhole_rank_ = rule.rank;
  }
}

void Transport::declare_suspect(int src, int dst, Channel& chan, Link& link,
                                int attempts) {
  // In-flight envelopes to a dead peer are unrecoverable; drop them so
  // nothing half-shipped survives into the unwind.
  link.limbo.clear();
  link.reorder.clear();
  suspect_peer_.store(dst, std::memory_order_relaxed);
  // Trip the team's shared kill flag: every other rank throws RankKilled
  // at its next fault point, exactly as if dst had been killed by plan.
  faults_->trip();
  throw PeerSuspect(src, dst, chan.name, attempts);
}

std::vector<Transport::ChannelReport> Transport::channel_reports() const {
  std::lock_guard<std::mutex> lock(open_mu_);
  std::vector<ChannelReport> out;
  out.reserve(channels_.size());
  for (const auto& chan : channels_) {
    ChannelReport report;
    report.name = chan->name;
    for (std::size_t b = 0; b < kHistBuckets; ++b)
      report.attempts_hist[b] =
          chan->hist[b].load(std::memory_order_relaxed);
    report.backoff_ticks =
        chan->backoff_ticks.load(std::memory_order_relaxed);
    out.push_back(std::move(report));
  }
  return out;
}

std::string Transport::format_retry_histograms() const {
  std::ostringstream os;
  for (const auto& report : channel_reports()) {
    std::uint64_t total = 0;
    for (auto count : report.attempts_hist) total += count;
    if (total == 0) continue;
    os << "channel " << report.name << ": ";
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (report.attempts_hist[b] == 0) continue;
      os << report.attempts_hist[b] << "x" << b
         << (b == kHistBuckets - 1 ? "+" : "") << " ";
    }
    os << "retries, backoff " << report.backoff_ticks << " ticks\n";
  }
  return os.str();
}

ChaosPlan ChaosPlan::parse(std::uint64_t seed, const std::string& spec) {
  ChaosPlan plan;
  plan.seed = seed;
  auto fail = [&](const std::string& why) {
    throw std::invalid_argument("chaos spec: " + why + " (in '" + spec + "')");
  };
  std::stringstream clauses(spec);
  std::string clause;
  while (std::getline(clauses, clause, ';')) {
    if (clause.empty()) continue;
    if (clause.rfind("blackhole=", 0) == 0) {
      // blackhole=RANK@STAGE[#OCCURRENCE]
      const std::string body = clause.substr(10);
      const auto at = body.find('@');
      if (at == std::string::npos) fail("blackhole needs RANK@STAGE");
      BlackholeRule rule;
      try {
        rule.rank = std::stoi(body.substr(0, at));
      } catch (const std::exception&) {
        fail("bad blackhole rank '" + body.substr(0, at) + "'");
      }
      std::string stage = body.substr(at + 1);
      const auto hash_pos = stage.find('#');
      if (hash_pos != std::string::npos) {
        try {
          rule.occurrence = std::stoi(stage.substr(hash_pos + 1));
        } catch (const std::exception&) {
          fail("bad blackhole occurrence in '" + stage + "'");
        }
        stage.resize(hash_pos);
      }
      if (stage.empty() || rule.rank < 0) fail("blackhole needs RANK@STAGE");
      rule.stage = std::move(stage);
      plan.blackholes.push_back(std::move(rule));
      continue;
    }
    // [pattern ':'] kv (',' kv)*  — the pattern may not contain '=' (that
    // would be a kv with a stray colon).
    std::string pattern;
    std::string kvs = clause;
    const auto colon = clause.find(':');
    if (colon != std::string::npos &&
        clause.substr(0, colon).find('=') == std::string::npos) {
      pattern = clause.substr(0, colon);
      kvs = clause.substr(colon + 1);
    }
    ChaosProbs probs;
    std::stringstream pairs(kvs);
    std::string kv;
    bool saw_any = false;
    while (std::getline(pairs, kv, ',')) {
      if (kv.empty()) continue;
      const auto eq = kv.find('=');
      if (eq == std::string::npos) fail("expected key=value, got '" + kv + "'");
      const std::string key = kv.substr(0, eq);
      double value = 0.0;
      try {
        value = std::stod(kv.substr(eq + 1));
      } catch (const std::exception&) {
        fail("bad probability '" + kv.substr(eq + 1) + "'");
      }
      if (value < 0.0 || value > 1.0)
        fail("probability out of [0,1]: '" + kv + "'");
      if (key == "drop") {
        probs.drop = value;
      } else if (key == "dup") {
        probs.dup = value;
      } else if (key == "reorder") {
        probs.reorder = value;
      } else if (key == "delay") {
        probs.delay = value;
      } else if (key == "corrupt") {
        probs.corrupt = value;
      } else {
        fail("unknown fault kind '" + key + "'");
      }
      saw_any = true;
    }
    if (!saw_any) fail("empty clause '" + clause + "'");
    if (pattern.empty()) {
      plan.defaults = probs;
    } else {
      plan.per_channel.emplace_back(std::move(pattern), probs);
    }
  }
  return plan;
}

}  // namespace hipmer::pgas
