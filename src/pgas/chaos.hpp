#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/hash.hpp"

/// Seeded, deterministic fault schedules for the lossy transport.
///
/// A `ChaosPlan` describes how the simulated fabric misbehaves: per-channel
/// probabilities of dropping, duplicating, reordering, delaying or
/// corrupting an envelope, plus targeted "blackhole rank R after stage S"
/// rules that silence a peer entirely (the scenario that escalates to
/// suspect-peer unwind + checkpoint resume). Every decision is a pure
/// function of (seed, channel, src, dst, seq, attempt) — there is no RNG
/// state to share between rank threads, so schedules are reproducible
/// regardless of thread interleaving and the same seed replays the same
/// faults.
///
/// The plan composes with `FaultPlan` rank kills: both are armed on the
/// team (faults() / transport()), stages are announced to both through
/// `ThreadTeam::begin_stage`, and a chaos-declared suspect peer unwinds
/// through the same `RankKilled` path a planned kill uses.
namespace hipmer::pgas {

/// Per-channel misbehavior probabilities. Fates are mutually exclusive per
/// delivery attempt (one uniform draw against cumulative thresholds), so
/// the sum should stay <= 1; anything left over is a clean delivery.
struct ChaosProbs {
  double drop = 0.0;     ///< envelope lost; sender retries after backoff
  double dup = 0.0;      ///< envelope delivered twice; receiver dedups
  double reorder = 0.0;  ///< envelope held until the next send on the link
  double delay = 0.0;    ///< envelope held for two sends (or until drain)
  double corrupt = 0.0;  ///< one byte flipped; receiver CRC rejects, retry

  [[nodiscard]] bool any() const noexcept {
    return drop > 0 || dup > 0 || reorder > 0 || delay > 0 || corrupt > 0;
  }
};

/// Silence every envelope to or from `rank` once `stage` has begun its
/// `occurrence`-th execution. The victim's peers exhaust their retry
/// deadline and declare it suspect.
struct BlackholeRule {
  int rank = -1;
  std::string stage;
  int occurrence = 0;

  [[nodiscard]] bool armed() const noexcept {
    return rank >= 0 && !stage.empty();
  }
};

class ChaosPlan {
 public:
  std::uint64_t seed = 0;
  /// Probabilities for channels with no matching override.
  ChaosProbs defaults;
  /// (substring pattern, probs) — a channel named "dbg.graph/store"
  /// matches patterns "dbg", "graph" or "store"; the last matching
  /// override wins, so specific rules go after general ones.
  std::vector<std::pair<std::string, ChaosProbs>> per_channel;
  std::vector<BlackholeRule> blackholes;

  [[nodiscard]] bool enabled() const noexcept {
    if (defaults.any() || !blackholes.empty()) return true;
    for (const auto& [pattern, probs] : per_channel)
      if (probs.any()) return true;
    return false;
  }

  [[nodiscard]] ChaosProbs resolve(const std::string& channel) const {
    ChaosProbs probs = defaults;
    for (const auto& [pattern, override_probs] : per_channel)
      if (channel.find(pattern) != std::string::npos) probs = override_probs;
    return probs;
  }

  /// Parse a `--chaos-spec` string. Grammar (clauses separated by ';'):
  ///   clause    := [pattern ':'] kv (',' kv)*
  ///              | 'blackhole=' RANK '@' STAGE ['#' OCCURRENCE]
  ///   kv        := ('drop'|'dup'|'reorder'|'delay'|'corrupt') '=' FLOAT
  /// Example: "drop=0.05,dup=0.02;lookup:corrupt=0.01;blackhole=2@merAligner"
  /// Throws std::invalid_argument on malformed input.
  static ChaosPlan parse(std::uint64_t seed, const std::string& spec);
};

/// What the fabric does to one delivery attempt of one envelope.
enum class ChaosFate { kDeliver, kDrop, kDuplicate, kReorder, kDelay, kCorrupt };

/// Deterministic per-attempt draw: a pure hash of the plan seed and the
/// envelope's identity. `salt` selects independent sub-streams (fate pick,
/// corrupt position, backoff jitter) from the same identity.
[[nodiscard]] inline std::uint64_t chaos_mix(std::uint64_t seed,
                                             std::uint32_t channel, int src,
                                             int dst, std::uint64_t seq,
                                             std::uint64_t salt) noexcept {
  std::uint64_t h = util::hash_combine(seed, channel);
  h = util::hash_combine(
      h, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
             static_cast<std::uint32_t>(dst));
  h = util::hash_combine(h, seq);
  h = util::hash_combine(h, salt);
  return util::mix64(h);
}

/// Map a 64-bit hash to [0, 1).
[[nodiscard]] inline double chaos_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// One fate per attempt, exclusive by cumulative thresholds. Reorder/delay
/// apply only to the first attempt: a retry is already late, and holding
/// retries could starve the retry loop of its deadline.
[[nodiscard]] inline ChaosFate chaos_fate(const ChaosProbs& p,
                                          std::uint64_t seed,
                                          std::uint32_t channel, int src,
                                          int dst, std::uint64_t seq,
                                          int attempt) noexcept {
  const double u = chaos_unit(
      chaos_mix(seed, channel, src, dst, seq,
                0x66617465ULL ^ static_cast<std::uint64_t>(attempt)));
  double edge = p.drop;
  if (u < edge) return ChaosFate::kDrop;
  edge += p.corrupt;
  if (u < edge) return ChaosFate::kCorrupt;
  edge += p.dup;
  if (u < edge) return ChaosFate::kDuplicate;
  if (attempt == 0) {
    edge += p.reorder;
    if (u < edge) return ChaosFate::kReorder;
    edge += p.delay;
    if (u < edge) return ChaosFate::kDelay;
  }
  return ChaosFate::kDeliver;
}

}  // namespace hipmer::pgas
