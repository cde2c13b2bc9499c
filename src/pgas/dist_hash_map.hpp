#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "io/wire.hpp"
#include "pgas/aggregating_engine.hpp"
#include "pgas/checked.hpp"
#include "pgas/map_wire.hpp"
#include "pgas/read_cache.hpp"
#include "pgas/spin_mutex.hpp"
#include "pgas/thread_team.hpp"
#include "pgas/transport.hpp"
#include "util/hash.hpp"

/// Distributed hash table with one-sided access, aggregating stores and
/// aggregated, software-cached lookups.
///
/// "We emphasize that distributed hash tables lie in the heart of HipMer and
/// the main operations on them are irregular lookups" (§7 of the paper).
/// This is that structure. The global key space is sharded across ranks by
/// an *owner mapping* (by default `hash % P`, replaceable by the oracle
/// partitioner of §3.2); each shard is a bucketized hash table owned by one
/// rank but directly readable/writable by every rank — the analogue of UPC
/// one-sided access. Per-bucket spinlocks make concurrent mixed-phase access
/// safe; every operation charges the initiator's communication counters and
/// the owner's service counter so the machine model sees exactly the traffic
/// the paper's optimizations manipulate.
///
/// Two store paths exist, mirroring §4.1's "aggregating stores":
///   - `update()` — one message per element (the naive fine-grained path);
///   - `update_buffered()` + `flush()` — per-destination buffers (the
///     shared AggregatingEngine) that move B elements per message, cutting
///     message count by B on the critical path.
///
/// Two read paths mirror them, per the journal version's aligner
/// optimizations (arXiv:1705.11147):
///   - `find()` — one message per lookup;
///   - `find_buffered()` + `process_lookups()` — lookup requests aggregate
///     per owner and replies arrive through a caller handler, optionally
///     fronted by a per-rank bounded LRU ReadCache (`enable_read_cache`)
///     for read-only phases. The cache self-invalidates across write-phase
///     boundaries via the table's write-version counter.
namespace hipmer::pgas {

/// Default conflict policy: last write wins.
template <typename V>
struct OverwriteMerge {
  void operator()(V& existing, const V& incoming) const { existing = incoming; }
};

/// Owner mapping: (key hash) -> rank. Default is modulo; the oracle
/// partitioner installs a custom one.
using RankMapper = std::function<std::uint32_t(std::uint64_t hash)>;

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Merge = OverwriteMerge<V>>
class DistHashMap {
 public:
  struct Config {
    /// Expected number of distinct keys across all ranks; controls bucket
    /// count (shards never rehash — overflow chains absorb misestimates,
    /// exactly as HipMer sizes tables from the cardinality estimate).
    std::size_t global_capacity = 1024;
    /// Elements buffered per destination before a flush ("aggregating
    /// stores" batch size; also the batch size of the aggregated lookup
    /// path).
    std::size_t flush_threshold = 512;
  };

  DistHashMap(ThreadTeam& team, Config cfg)
      : team_(&team),
        cfg_(cfg),
        nranks_(static_cast<std::uint32_t>(team.nranks())),
        shards_(static_cast<std::size_t>(team.nranks())),
        store_engine_(nranks_, cfg.flush_threshold),
        lookup_engine_(nranks_, cfg.flush_threshold),
        caches_(static_cast<std::size_t>(team.nranks()))
#if defined(HIPMER_CHECKED)
        ,
        checked_(team.checker(), "DistHashMap",
                 [this](int r) { return pending_store_ops(r); },
                 [this](int r) { return pending_lookups(r); })
#endif
  {
    // Register the table's two wire channels so batched traffic travels
    // through the lossy-transport layer (per-channel chaos overrides key
    // off these names; set_name refines them).
    store_channel_ = team.transport().open_channel("DistHashMap/store");
    lookup_channel_ = team.transport().open_channel("DistHashMap/lookup");
    if (team.multiprocess()) {
      if constexpr (kWireStores && kWireLookups) {
        // Inbound store batches: apply to the local shard, charging this
        // process's mirror of the initiator's counters (global sums then
        // match the threads fabric, where the initiator applied directly).
        team.transport().set_handler(
            store_channel_,
            [this](int src, int dst, const std::byte* data, std::size_t size) {
              Rank initiator(*team_, src);
              auto ops = map_wire::decode_batch<PendingOp>(data, size);
              apply_store_batch(initiator, static_cast<std::uint32_t>(dst),
                                ops);
            });
        // Inbound lookup batches: answer from the local shard via a
        // fire-and-forget reply to the requesting process.
        team.transport().set_handler(
            lookup_channel_,
            [this](int src, int, const std::byte* data, std::size_t size) {
              auto reqs = map_wire::decode_batch<LookupReq>(data, size);
              answer_remote_lookups(src, reqs);
            });
        reply_oneway_ = team.fabric().register_oneway(
            [this](int, const std::byte* data, std::size_t size) {
              deliver_remote_replies(data, size);
            });
        rmw_rpc_ = team.fabric().register_rpc(
            [this](int, const std::byte* data, std::size_t size) {
              return serve_rmw(data, size);
            });
      } else {
        throw std::logic_error(
            "DistHashMap: instantiation is not wire-serializable and cannot "
            "run on a multi-process fabric");
      }
    }
    const std::size_t per_shard =
        (cfg.global_capacity + nranks_ - 1) / nranks_;
    // Aim for ~2 entries per bucket at the estimated cardinality.
    std::size_t nbuckets = 1;
    while (nbuckets * Bucket::kInline / 2 < per_shard) nbuckets <<= 1;
    for (auto& shard : shards_) {
      shard.buckets.resize(nbuckets);
      shard.locks = std::make_unique<SpinMutex[]>(nbuckets);
      shard.mask = nbuckets - 1;
    }
  }

  /// Install a custom owner mapping (oracle partitioning). Must be called
  /// while the table is empty and outside concurrent access.
  void set_rank_mapper(RankMapper mapper) { mapper_ = std::move(mapper); }

  /// Name this table ("dbg.graph", "align.seed_index", ...): labels
  /// HIPMER_CHECKED diagnostics and renames the transport channels so
  /// chaos-spec patterns and retry histograms key off the table name.
  void set_name(const std::string& name) {
#if defined(HIPMER_CHECKED)
    checked_.set_name(name);
#endif
    team_->transport().set_channel_name(store_channel_, name + "/store");
    team_->transport().set_channel_name(lookup_channel_, name + "/lookup");
  }
#if defined(HIPMER_CHECKED)
  // RelaxedPhase plumbing (see pgas/checked.hpp).
  void checked_relaxed_begin(int rank) { checked_.relaxed_begin(rank); }
  void checked_relaxed_end(int rank) { checked_.relaxed_end(rank); }
#endif

  [[nodiscard]] std::uint64_t hash_of(const K& key) const {
    return Hash{}(key);
  }

  [[nodiscard]] std::uint32_t owner_of(const K& key) const {
    const std::uint64_t h = Hash{}(key);
    return mapper_ ? mapper_(h) : static_cast<std::uint32_t>(h % nranks_);
  }

  // ---- fine-grained one-sided path ----

  /// Find-or-insert `key` and merge `delta` into its value. One message.
  void update(Rank& rank, const K& key, const V& delta HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    checked_.on_store(rank.id(), CheckedTable::Path::kFine,
                      to_site(hipmer_site));
#endif
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner =
        mapper_ ? mapper_(h) : static_cast<std::uint32_t>(h % nranks_);
    rank.charge_message(static_cast<int>(owner), sizeof(K) + sizeof(V), 1);
    apply_update(owner, h, key, delta);
    bump_version();
  }

  /// One-sided lookup. One message (request+reply counted once); a miss
  /// moves only the key-sized request — the reply carries no value — so
  /// modeled lookup traffic is not inflated by absent keys.
  [[nodiscard]] std::optional<V> find(Rank& rank,
                                      const K& key HIPMER_SITE_DEFAULT) const {
#if defined(HIPMER_CHECKED)
    checked_.on_lookup(rank.id(), CheckedTable::Path::kFine,
                       to_site(hipmer_site));
#endif
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner =
        mapper_ ? mapper_(h) : static_cast<std::uint32_t>(h % nranks_);
    // The pipeline's fine-grained reads are owner-local (the batched path
    // handles remote reads); a remote fine-grained find on a multi-process
    // fabric would read an empty local mirror of the owner's shard.
    assert(team_->is_local(static_cast<int>(owner)));
    const Shard& shard = shards_[owner];
    const std::size_t b = bucket_index(shard, h);
    std::optional<V> result;
    {
      std::lock_guard<SpinMutex> lock(shard.locks[b]);
      const Entry* e = find_in_bucket(shard.buckets[b], key);
      if (e != nullptr) result = e->value;
    }
    rank.charge_message(static_cast<int>(owner),
                        sizeof(K) + (result.has_value() ? sizeof(V) : 0), 1);
    return result;
  }

  /// Lock the key's bucket and run `fn(V&)` in place if present. Returns
  /// the functor's value wrapped in optional, or nullopt if the key is
  /// absent. This is the primitive the traversal's claim/abort protocol and
  /// the scaffolder's tie updates are built on.
  template <typename Fn>
  auto modify(Rank& rank, const K& key, Fn&& fn HIPMER_SITE_DEFAULT)
      -> std::optional<decltype(fn(std::declval<V&>()))> {
#if defined(HIPMER_CHECKED)
    // An in-place RMW is a store for phase purposes.
    checked_.on_store(rank.id(), CheckedTable::Path::kFine,
                      to_site(hipmer_site));
#endif
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner =
        mapper_ ? mapper_(h) : static_cast<std::uint32_t>(h % nranks_);
    // A closure cannot cross an address-space boundary; on a multi-process
    // fabric use the registered-RMW path (register_rmw/rmw) instead.
    assert(team_->is_local(static_cast<int>(owner)));
    rank.charge_message(static_cast<int>(owner), sizeof(K) + sizeof(V), 1);
    Shard& shard = shards_[owner];
    const std::size_t b = bucket_index(shard, h);
    std::optional<decltype(fn(std::declval<V&>()))> result;
    {
      std::lock_guard<SpinMutex> lock(shard.locks[b]);
      Entry* e = find_in_bucket_mut(shard.buckets[b], key);
      if (e == nullptr) return std::nullopt;
      result = fn(e->value);
    }
    bump_version();
    return result;
  }

  // ---- registered read-modify-write (the shippable form of modify) ----
  //
  // modify() takes an arbitrary closure, which cannot cross an address
  // space. A *registered* RMW names the operation up front — its captures
  // become a POD argument block — so the owner process can execute it on a
  // multi-process fabric from a [rmw-id, key, args] request. Registration
  // runs in serial context during SPMD structure construction; every
  // process constructs the same structures in the same order, so ids agree
  // across the team without negotiation.

  using RmwId = std::uint32_t;

  /// Register `fn(V& value, const Args& args) -> Result`, executed under
  /// the owner's bucket lock when the key is present (an absent key yields
  /// nullopt at the call site, exactly like modify()).
  template <typename Args, typename Result, typename Fn>
  RmwId register_rmw(Fn fn) {
    static_assert(std::is_trivially_copyable_v<Args> &&
                      std::is_trivially_copyable_v<Result>,
                  "rmw argument/result blocks must be trivially copyable");
    rmws_.push_back([this, fn](std::uint32_t owner, std::uint64_t h,
                               const K& key, const std::byte* args,
                               std::size_t args_size,
                               std::vector<std::byte>& out) -> bool {
      Args a{};
      if (args_size >= sizeof(Args)) std::memcpy(&a, args, sizeof(Args));
      Shard& shard = shards_[owner];
      const std::size_t b = bucket_index(shard, h);
      std::lock_guard<SpinMutex> lock(shard.locks[b]);
      Entry* e = find_in_bucket_mut(shard.buckets[b], key);
      if (e == nullptr) return false;
      Result res = fn(e->value, a);
      out.resize(sizeof(Result));
      std::memcpy(out.data(), &res, sizeof(Result));
      return true;
    });
    return static_cast<RmwId>(rmws_.size() - 1);
  }

  /// Execute a registered RMW against `key`'s owner: in place when the
  /// owner shard lives in this address space (modify()'s exact semantics,
  /// locking and accounting), over the fabric's request/response path
  /// otherwise. Charging is identical on both paths and both fabrics.
  template <typename Result, typename Args>
  std::optional<Result> rmw(Rank& rank, const K& key, RmwId id,
                            const Args& args HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    checked_.on_store(rank.id(), CheckedTable::Path::kFine,
                      to_site(hipmer_site));
#endif
    static_assert(std::is_trivially_copyable_v<Args> &&
                      std::is_trivially_copyable_v<Result>,
                  "rmw argument/result blocks must be trivially copyable");
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner =
        mapper_ ? mapper_(h) : static_cast<std::uint32_t>(h % nranks_);
    rank.charge_message(static_cast<int>(owner), sizeof(K) + sizeof(V), 1);
    if (team_->is_local(static_cast<int>(owner))) {
      std::vector<std::byte> out;
      const bool present =
          rmws_[id](owner, h, key,
                    reinterpret_cast<const std::byte*>(&args), sizeof(Args),
                    out);
      if (!present) return std::nullopt;
      bump_version();
      Result res{};
      std::memcpy(&res, out.data(), sizeof(Result));
      return res;
    }
    auto payload = map_wire::encode_rmw_request(
        id, h, key, reinterpret_cast<const std::byte*>(&args), sizeof(Args));
    const auto resp =
        team_->fabric().rpc(rmw_rpc_, static_cast<int>(owner),
                            std::move(payload));
    const auto result = map_wire::decode_rmw_response(resp.data(), resp.size());
    if (!result) return std::nullopt;
    if (result->size() != sizeof(Result))
      throw io::wire::CorruptError(
          "wire: corrupt: rmw result size disagrees with Result type");
    Result res{};
    std::memcpy(&res, result->data(), sizeof(Result));
    return res;
  }

  // ---- aggregating-stores path ----

  /// Buffer (key, delta) toward the owner; flushes the destination buffer
  /// automatically at the batch threshold.
  void update_buffered(Rank& rank, const K& key,
                       const V& delta HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    checked_.on_store(rank.id(), CheckedTable::Path::kBatched,
                      to_site(hipmer_site));
#endif
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner =
        mapper_ ? mapper_(h) : static_cast<std::uint32_t>(h % nranks_);
    store_engine_.enqueue(rank.id(), owner, PendingOp{h, key, delta},
                          [&](std::uint32_t dest, std::vector<PendingOp>& ops) {
                            ship_store_batch(rank, dest, ops);
                          });
  }

  /// Drain all of this rank's outgoing store buffers. Every rank must call
  /// this (followed by a barrier at the call site) before switching the
  /// table to the read phase. The engine drains destinations round-robin
  /// starting at this rank's successor (flush-storm avoidance).
  void flush(Rank& rank) {
    store_engine_.flush(rank.id(),
                        [&](std::uint32_t dest, std::vector<PendingOp>& ops) {
                          ship_store_batch(rank, dest, ops);
                        });
    // Chaos may have held shipped envelopes "in the network" (reorder /
    // delay fates); the post-flush contract is "all stores applied", so
    // drain them here.
    if constexpr (kWireStores) {
      team_->transport().drain(rank.id(), store_channel_, rank.stats(),
                               store_deliver(rank));
    }
  }

  /// Store ops this rank has buffered but not yet applied (0 after flush).
  /// A store batch held in transport limbo is un-applied state exactly
  /// like an unflushed row, so it counts.
  [[nodiscard]] std::size_t pending_store_ops(int rank) const {
    std::size_t n = store_engine_.pending(rank);
    if constexpr (kWireStores)
      n += team_->transport().pending(rank, store_channel_);
    return n;
  }

  // ---- aggregated lookup path (batched reads + software cache) ----
  //
  // Handler signature: void(const K& key, const V* value, std::uint64_t
  // tag). `value` is nullptr on miss and otherwise valid only for the
  // duration of the call; `tag` is the caller's routing cookie (slot index,
  // contig id, ...). The handler for a key may run inside `find_buffered`
  // itself — on a cache hit, a local key, or an auto-flushed full batch —
  // or inside `process_lookups`; callers must pass the same handler to
  // both and must not assume reply order.

  /// Queue a lookup of `key`, delivering the reply through `handler`.
  /// Local keys are served immediately (local access, no batching); remote
  /// keys consult this rank's ReadCache when enabled and otherwise join
  /// the per-owner request batch.
  template <typename Handler>
  void find_buffered(Rank& rank, const K& key, std::uint64_t tag,
                     Handler&& handler HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    checked_.on_lookup(rank.id(), CheckedTable::Path::kBatched,
                       to_site(hipmer_site));
#endif
    const std::uint64_t h = Hash{}(key);
    const std::uint32_t owner =
        mapper_ ? mapper_(h) : static_cast<std::uint32_t>(h % nranks_);
    if (static_cast<int>(owner) == rank.id()) {
      // Owner-local: answer from the shard directly, as find() would.
      const Shard& shard = shards_[owner];
      const std::size_t b = bucket_index(shard, h);
      bool found = false;
      V copy;
      {
        std::lock_guard<SpinMutex> lock(shard.locks[b]);
        if (const Entry* e = find_in_bucket(shard.buckets[b], key)) {
          copy = e->value;
          found = true;
        }
      }
      rank.stats().add_local_access(1);
      handler(key, found ? &copy : nullptr, tag);
      return;
    }
    if (auto* cache = caches_[static_cast<std::size_t>(rank.id())].get()) {
#if defined(HIPMER_CHECKED)
      // Consult the contract *before* check_version drops stale entries:
      // a cache that outlived a write phase is a bug even though the data
      // would have been discarded here.
      checked_.on_cache_consult(rank.id(), cache->seen_version(),
                                version_.load(std::memory_order_acquire),
                                cache->size(), to_site(hipmer_site));
#endif
      cache->check_version(version_.load(std::memory_order_acquire));
      if (const V* hit = cache->lookup(key)) {
        rank.stats().add_read_cache_hit();
        handler(key, hit, tag);
        return;
      }
      rank.stats().add_read_cache_miss();
    }
    lookup_engine_.enqueue(
        rank.id(), owner, LookupReq{h, key, tag},
        [&](std::uint32_t dest, std::vector<LookupReq>& reqs) {
          ship_lookup_batch(rank, dest, reqs, handler);
        });
  }

  /// Drain this rank's pending lookup batches, delivering every
  /// outstanding reply through `handler`. Round-robin over owners, like
  /// flush(). Call at the end of a read phase (no barrier needed: lookups
  /// touch only owner shards, which are valid throughout).
  template <typename Handler>
  void process_lookups(Rank& rank, Handler&& handler) {
    lookup_engine_.flush(rank.id(),
                         [&](std::uint32_t dest, std::vector<LookupReq>& reqs) {
                           ship_lookup_batch(rank, dest, reqs, handler);
                         });
    if constexpr (kWireLookups) {
      team_->transport().drain(rank.id(), lookup_channel_, rank.stats(),
                               lookup_deliver(rank, handler));
      if (team_->multiprocess() && outstanding_ > 0) {
        // Remote owners still owe reply messages; serve inbound traffic
        // (including their lookup requests against our shard) until every
        // outstanding reply has been delivered through `handler`.
        arm_reply_trampoline(handler);
        team_->fabric().poll_until([this] { return outstanding_ == 0; });
      }
    }
  }

  /// Lookups this rank has queued but not yet answered (0 after
  /// process_lookups). Requests held in transport limbo count.
  [[nodiscard]] std::size_t pending_lookups(int rank) const {
    std::size_t n = lookup_engine_.pending(rank);
    if constexpr (kWireLookups)
      n += team_->transport().pending(rank, lookup_channel_);
    // A shipped batch whose reply has not arrived is still an unanswered
    // lookup (multi-process fabrics only; the threads fabric replies
    // synchronously).
    if (team_->multiprocess()) n += outstanding_;
    return n;
  }

  /// Opt this rank into the software read cache (read-only phases). Each
  /// rank manages only its own cache slot, so this is callable from inside
  /// team.run() without synchronization.
  void enable_read_cache(Rank& rank, std::size_t capacity) {
    // On a multi-process fabric, version bumps from writes in other
    // processes are not observable here, so the self-invalidation contract
    // cannot hold; run uncached (correct, just unaccelerated).
    if (team_->multiprocess()) return;
    auto& slot = caches_[static_cast<std::size_t>(rank.id())];
    slot = std::make_unique<Cache>(capacity);
    active_caches_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drop this rank's cache (end of the read phase) and release its memory.
  void disable_read_cache(Rank& rank) {
    auto& slot = caches_[static_cast<std::size_t>(rank.id())];
    if (slot == nullptr) return;
    slot.reset();
    active_caches_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// This rank's cache hit/miss counters (zeros when no cache is enabled).
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] CacheStats read_cache_stats(int rank) const {
    const auto* cache = caches_[static_cast<std::size_t>(rank)].get();
    if (cache == nullptr) return {};
    return CacheStats{cache->hits(), cache->misses()};
  }

  // ---- local-shard access (owner side) ----

  /// Visit every (key, value) in this rank's shard. `fn(const K&, V&)`.
  template <typename Fn>
  void for_each_local(Rank& rank, Fn&& fn) {
    Shard& shard = shards_[static_cast<std::size_t>(rank.id())];
    for (std::size_t b = 0; b < shard.buckets.size(); ++b) {
      std::lock_guard<SpinMutex> lock(shard.locks[b]);
      Bucket& bucket = shard.buckets[b];
      for (std::uint8_t i = 0; i < bucket.count; ++i)
        fn(static_cast<const K&>(bucket.slots[i].key), bucket.slots[i].value);
      for (auto& e : bucket.overflow)
        fn(static_cast<const K&>(e.key), e.value);
    }
  }

  /// Erase local entries for which `pred(key, value)` is true; returns the
  /// number removed. Used to discard below-threshold (erroneous) k-mers.
  template <typename Pred>
  std::size_t erase_local_if(Rank& rank, Pred&& pred HIPMER_SITE_DEFAULT) {
#if defined(HIPMER_CHECKED)
    // Owner-local compaction still mutates entries remote lookups may be
    // reading: a store event, but exempt from the mixed-access rule.
    checked_.on_store(rank.id(), CheckedTable::Path::kLocal,
                      to_site(hipmer_site));
#endif
    Shard& shard = shards_[static_cast<std::size_t>(rank.id())];
    std::size_t erased = 0;
    for (std::size_t b = 0; b < shard.buckets.size(); ++b) {
      std::lock_guard<SpinMutex> lock(shard.locks[b]);
      Bucket& bucket = shard.buckets[b];
      // Compact inline slots, refilling from overflow. The swapped-in
      // entry is re-examined (no ++i), since it may match the predicate
      // too.
      for (std::uint8_t i = 0; i < bucket.count;) {
        if (pred(static_cast<const K&>(bucket.slots[i].key),
                 bucket.slots[i].value)) {
          ++erased;
          if (!bucket.overflow.empty()) {
            bucket.slots[i] = bucket.overflow.back();
            bucket.overflow.pop_back();
          } else {
            bucket.slots[i] = bucket.slots[bucket.count - 1];
            --bucket.count;
          }
          continue;
        }
        ++i;
      }
      for (std::size_t i = 0; i < bucket.overflow.size();) {
        if (pred(static_cast<const K&>(bucket.overflow[i].key),
                 bucket.overflow[i].value)) {
          bucket.overflow[i] = bucket.overflow.back();
          bucket.overflow.pop_back();
          ++erased;
        } else {
          ++i;
        }
      }
    }
    shard.size.fetch_sub(erased, std::memory_order_relaxed);
    bump_version();
    return erased;
  }

  [[nodiscard]] std::size_t local_size(int rank) const {
    return shards_[static_cast<std::size_t>(rank)].size.load(
        std::memory_order_relaxed);
  }

  /// Collective: total entries across all shards.
  [[nodiscard]] std::size_t global_size(Rank& rank) {
    return rank.allreduce_sum<std::uint64_t>(
        local_size(rank.id()));
  }

  /// Non-collective total (call after a barrier / between phases).
  [[nodiscard]] std::size_t size_unsafe() const {
    std::size_t total = 0;
    for (const auto& s : shards_) total += s.size.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct Entry {
    K key;
    V value;
  };

  struct Bucket {
    static constexpr int kInline = 4;
    Entry slots[kInline];
    std::uint8_t count = 0;
    std::vector<Entry> overflow;
  };

  struct Shard {
    std::vector<Bucket> buckets;
    std::unique_ptr<SpinMutex[]> locks;
    std::size_t mask = 0;
    std::atomic<std::size_t> size{0};
  };

  struct PendingOp {
    std::uint64_t hash;
    K key;
    V delta;
  };

  struct LookupReq {
    std::uint64_t hash;
    K key;
    std::uint64_t tag;
  };

  using Cache = ReadCache<K, V, Hash>;

  /// Whether a batch can travel the wire as a byte envelope: POD ops are
  /// memcpy-serializable, which covers every instantiation the pipeline
  /// uses. Non-POD instantiations keep the direct shared-memory apply (a
  /// real network backend would need a proper serializer there).
  static constexpr bool kWireStores = std::is_trivially_copyable_v<PendingOp>;
  static constexpr bool kWireLookups = std::is_trivially_copyable_v<LookupReq>;

  /// Receiver-side apply for one store envelope (run on the initiator's
  /// thread — synchronous simulated delivery). Runs exactly once per
  /// distinct envelope: the transport dedups retransmits, so CommStats
  /// charging stays inside, identical to the pre-transport accounting.
  auto store_deliver(Rank& rank) {
    return [this, &rank](int dst, const std::byte* data, std::size_t size) {
      auto ops = map_wire::decode_batch<PendingOp>(data, size);
      apply_store_batch(rank, static_cast<std::uint32_t>(dst), ops);
    };
  }

  template <typename Handler>
  auto lookup_deliver(Rank& rank, Handler& handler) {
    return [this, &rank, &handler](int dst, const std::byte* data,
                                   std::size_t size) {
      auto reqs = map_wire::decode_batch<LookupReq>(data, size);
      answer_lookup_batch(rank, static_cast<std::uint32_t>(dst), reqs,
                          handler);
    };
  }

  void ship_store_batch(Rank& rank, std::uint32_t dest,
                        std::vector<PendingOp>& ops) {
    if constexpr (kWireStores) {
      try {
        team_->transport().send(rank.id(), static_cast<int>(dest),
                                store_channel_, map_wire::encode_batch(ops),
                                rank.stats(), store_deliver(rank));
      } catch (const PeerSuspect&) {
        degrade(rank);
        throw;
      }
    } else {
      apply_store_batch(rank, dest, ops);
    }
  }

  template <typename Handler>
  void ship_lookup_batch(Rank& rank, std::uint32_t dest,
                         std::vector<LookupReq>& reqs, Handler& handler) {
    if constexpr (kWireLookups) {
      if (!team_->is_local(static_cast<int>(dest))) {
        // The owner answers with one oneway reply message per request
        // batch (the transport dedups retransmits, so exactly one per
        // send). Replies are dispatched only inside fabric awaits; the
        // armed handler must stay alive until process_lookups drains the
        // count, which the phase discipline (pending_lookups == 0 at
        // barriers) guarantees.
        arm_reply_trampoline(handler);
        ++outstanding_;
      }
      try {
        team_->transport().send(rank.id(), static_cast<int>(dest),
                                lookup_channel_, map_wire::encode_batch(reqs),
                                rank.stats(), lookup_deliver(rank, handler));
      } catch (const PeerSuspect&) {
        degrade(rank);
        throw;
      }
    } else {
      answer_lookup_batch(rank, dest, reqs, handler);
    }
  }

  /// Suspect-peer degradation: the team is about to unwind through the
  /// RankKilled path and resume from a checkpoint, so everything this rank
  /// holds in flight is stale. Drop the read cache (its seen-version dies
  /// with the team) and clear the engine rows so no later flush ships
  /// half-finished batches at the dead fabric.
  void degrade(Rank& rank) {
    disable_read_cache(rank);
    store_engine_.clear(rank.id());
    lookup_engine_.clear(rank.id());
    outstanding_ = 0;
  }

  // ---- multi-process fabric plumbing ----

  /// Point the reply dispatcher at the caller's current handler object.
  /// The capture-free lambda decays to a plain function pointer, so one
  /// (ctx, fn) pair serves every Handler type without virtual dispatch.
  template <typename Handler>
  void arm_reply_trampoline(Handler& handler) {
    using H = std::remove_reference_t<Handler>;
    reply_ctx_ = const_cast<void*>(static_cast<const void*>(&handler));
    reply_fn_ = [](void* ctx, const K& key, const V* val, std::uint64_t tag) {
      (*static_cast<H*>(ctx))(key, val, tag);
    };
  }

  /// Owner side of a remote lookup batch: probe the local shard and ship
  /// one reply message. Charging mirrors answer_lookup_batch — the request
  /// ships the keys, the reply ships values for the hits only — but lands
  /// in this process's mirror of the initiator's counters.
  void answer_remote_lookups(int src, std::vector<LookupReq>& reqs) {
    const auto me = static_cast<std::uint32_t>(team_->my_rank());
    const Shard& shard = shards_[me];
    std::vector<map_wire::LookupReply<K, V>> replies;
    replies.reserve(reqs.size());
    std::size_t hits = 0;
    for (const auto& req : reqs) {
      const std::size_t b = bucket_index(shard, req.hash);
      map_wire::LookupReply<K, V> reply;
      reply.tag = req.tag;
      reply.key = req.key;
      {
        std::lock_guard<SpinMutex> lock(shard.locks[b]);
        if (const Entry* e = find_in_bucket(shard.buckets[b], req.key)) {
          reply.value = e->value;
          reply.found = true;
        }
      }
      if (reply.found) ++hits;
      replies.push_back(reply);
    }
    Rank initiator(*team_, src);
    initiator.charge_message(static_cast<int>(me),
                             reqs.size() * sizeof(K) + hits * sizeof(V),
                             reqs.size());
    team_->fabric().send_oneway(reply_oneway_, src,
                                map_wire::encode_lookup_replies(replies));
  }

  /// Initiator side: decode one reply message, deliver each entry through
  /// the armed handler, and retire the batch it answers.
  void deliver_remote_replies(const std::byte* data, std::size_t size) {
    const auto replies = map_wire::decode_lookup_replies<K, V>(data, size);
    for (const auto& reply : replies) {
      reply_fn_(reply_ctx_, reply.key, reply.found ? &reply.value : nullptr,
                reply.tag);
    }
    assert(outstanding_ > 0);
    if (outstanding_ > 0) --outstanding_;
  }

  /// Owner side of a remote registered-RMW request.
  std::vector<std::byte> serve_rmw(const std::byte* data, std::size_t size) {
    auto req = map_wire::decode_rmw_request<K>(data, size);
    if (req.id >= rmws_.size())
      throw io::wire::CorruptError("wire: corrupt: unknown rmw id");
    std::vector<std::byte> out;
    const bool present =
        rmws_[req.id](static_cast<std::uint32_t>(team_->my_rank()), req.hash,
                      req.key, req.args.data(), req.args.size(), out);
    if (present) bump_version();
    return map_wire::encode_rmw_response(present, out);
  }

  static std::size_t bucket_index(const Shard& shard, std::uint64_t h) {
    // Decorrelate from the owner mapping (which typically uses h % P).
    return util::fmix64(h) & shard.mask;
  }

  static const Entry* find_in_bucket(const Bucket& bucket, const K& key) {
    for (std::uint8_t i = 0; i < bucket.count; ++i)
      if (bucket.slots[i].key == key) return &bucket.slots[i];
    for (const auto& e : bucket.overflow)
      if (e.key == key) return &e;
    return nullptr;
  }

  static Entry* find_in_bucket_mut(Bucket& bucket, const K& key) {
    for (std::uint8_t i = 0; i < bucket.count; ++i)
      if (bucket.slots[i].key == key) return &bucket.slots[i];
    for (auto& e : bucket.overflow)
      if (e.key == key) return &e;
    return nullptr;
  }

  void apply_update(std::uint32_t owner, std::uint64_t h, const K& key,
                    const V& delta) {
    Shard& shard = shards_[owner];
    const std::size_t b = bucket_index(shard, h);
    std::lock_guard<SpinMutex> lock(shard.locks[b]);
    Bucket& bucket = shard.buckets[b];
    if (Entry* e = find_in_bucket_mut(bucket, key)) {
      Merge{}(e->value, delta);
      return;
    }
    if (bucket.count < Bucket::kInline) {
      bucket.slots[bucket.count] = Entry{key, delta};
      ++bucket.count;
    } else {
      bucket.overflow.push_back(Entry{key, delta});
    }
    shard.size.fetch_add(1, std::memory_order_relaxed);
  }

  /// One aggregated store message: charge once, apply every op.
  void apply_store_batch(Rank& rank, std::uint32_t dest,
                         std::vector<PendingOp>& ops) {
    rank.charge_message(static_cast<int>(dest),
                        ops.size() * (sizeof(K) + sizeof(V)), ops.size());
    for (const auto& op : ops)
      apply_update(dest, op.hash, op.key, op.delta);
    bump_version();
  }

  /// One aggregated lookup message: the request ships the keys, the reply
  /// ships values for the hits only (the miss accounting rule of find()).
  template <typename Handler>
  void answer_lookup_batch(Rank& rank, std::uint32_t dest,
                           std::vector<LookupReq>& reqs, Handler&& handler) {
    auto* cache = caches_[static_cast<std::size_t>(rank.id())].get();
    const Shard& shard = shards_[dest];
    std::size_t hits = 0;
    for (const auto& req : reqs) {
      const std::size_t b = bucket_index(shard, req.hash);
      bool found = false;
      V copy;
      {
        std::lock_guard<SpinMutex> lock(shard.locks[b]);
        if (const Entry* e = find_in_bucket(shard.buckets[b], req.key)) {
          copy = e->value;
          found = true;
        }
      }
      if (found) {
        ++hits;
        if (cache != nullptr) cache->insert(req.key, copy);
      }
      handler(static_cast<const K&>(req.key), found ? &copy : nullptr,
              req.tag);
    }
    rank.charge_message(static_cast<int>(dest),
                        reqs.size() * sizeof(K) + hits * sizeof(V),
                        reqs.size());
  }

  /// Writes advance the table version so read caches self-invalidate.
  /// Skipped while no cache exists anywhere — the common write phases —
  /// to keep the hot update paths free of shared-counter traffic.
  void bump_version() {
    if (active_caches_.load(std::memory_order_relaxed) == 0) return;
    version_.fetch_add(1, std::memory_order_release);
  }

  ThreadTeam* team_;
  Config cfg_;
  std::uint32_t nranks_;
  RankMapper mapper_;
  std::vector<Shard> shards_;
  AggregatingEngine<PendingOp> store_engine_;
  AggregatingEngine<LookupReq> lookup_engine_;
  Transport::ChannelId store_channel_ = 0;
  Transport::ChannelId lookup_channel_ = 0;
  // caches_[r] — rank r's software read cache (null = not opted in). Each
  // rank touches only its own slot.
  std::vector<std::unique_ptr<Cache>> caches_;
  // Multi-process fabric state (this process's single rank owns it all):
  // fabric service ids, reply batches still in flight, the armed reply
  // dispatch target, and the registered-RMW table in registration order.
  std::uint32_t reply_oneway_ = 0;
  std::uint32_t rmw_rpc_ = 0;
  std::size_t outstanding_ = 0;
  void* reply_ctx_ = nullptr;
  void (*reply_fn_)(void*, const K&, const V*, std::uint64_t) = nullptr;
  std::vector<std::function<bool(std::uint32_t owner, std::uint64_t h,
                                 const K& key, const std::byte* args,
                                 std::size_t args_size,
                                 std::vector<std::byte>& out)>>
      rmws_;
#if defined(HIPMER_CHECKED)
  // mutable: lookups are logically const but must record read events.
  mutable CheckedTable checked_;
#endif
  std::atomic<std::uint64_t> active_caches_{0};
  // Monotonic write version; starts at 1 so a fresh cache (seen_version 0)
  // always syncs on first use.
  std::atomic<std::uint64_t> version_{1};
};

}  // namespace hipmer::pgas
