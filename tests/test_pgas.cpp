#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>

#include "pgas/aggregating_engine.hpp"
#include "pgas/dist_hash_map.hpp"
#include "pgas/machine_model.hpp"
#include "pgas/read_cache.hpp"
#include "pgas/thread_team.hpp"
#include "pgas/topology.hpp"

namespace hipmer::pgas {
namespace {

TEST(Topology, NodeMapping) {
  Topology topo{10, 4};
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(3), 0);
  EXPECT_EQ(topo.node_of(4), 1);
  EXPECT_EQ(topo.node_of(9), 2);
  EXPECT_EQ(topo.num_nodes(), 3);
  EXPECT_TRUE(topo.same_node(4, 7));
  EXPECT_FALSE(topo.same_node(3, 4));
}

TEST(ThreadTeam, RunsEveryRankExactlyOnce) {
  ThreadTeam team(Topology{8, 4});
  std::atomic<int> counter{0};
  std::array<std::atomic<int>, 8> seen{};
  team.run([&](Rank& rank) {
    counter.fetch_add(1);
    seen[static_cast<std::size_t>(rank.id())].fetch_add(1);
    EXPECT_EQ(rank.nranks(), 8);
    EXPECT_EQ(rank.node(), rank.id() / 4);
  });
  EXPECT_EQ(counter.load(), 8);
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadTeam, PropagatesExceptions) {
  ThreadTeam team(Topology{4, 4});
  EXPECT_THROW(
      team.run([&](Rank& rank) {
        if (rank.id() == 2) throw std::runtime_error("rank 2 failed");
      }),
      std::runtime_error);
}

TEST(Collectives, AllreduceSumMaxMin) {
  ThreadTeam team(Topology{6, 3});
  team.run([&](Rank& rank) {
    const int sum = rank.allreduce_sum(rank.id() + 1);
    EXPECT_EQ(sum, 21);  // 1+2+...+6
    const int mx = rank.allreduce_max(rank.id());
    EXPECT_EQ(mx, 5);
    const int mn = rank.allreduce_min(rank.id() + 10);
    EXPECT_EQ(mn, 10);
  });
}

TEST(Collectives, AllgatherOrdered) {
  ThreadTeam team(Topology{5, 2});
  team.run([&](Rank& rank) {
    const auto all = rank.allgather(rank.id() * rank.id());
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * r);
  });
}

TEST(Collectives, AllgathervVariableSizes) {
  ThreadTeam team(Topology{4, 2});
  team.run([&](Rank& rank) {
    std::vector<int> mine(static_cast<std::size_t>(rank.id()), rank.id());
    const auto all = rank.allgatherv(mine);
    // Sizes 0+1+2+3 = 6 elements, in rank order.
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all, (std::vector<int>{1, 2, 2, 3, 3, 3}));
  });
}

TEST(Collectives, BroadcastFromNonZeroRoot) {
  ThreadTeam team(Topology{4, 2});
  team.run([&](Rank& rank) {
    const double v = rank.broadcast(rank.id() == 2 ? 2.718 : -1.0, 2);
    EXPECT_DOUBLE_EQ(v, 2.718);
  });
}

TEST(Collectives, ExscanSum) {
  ThreadTeam team(Topology{5, 5});
  team.run([&](Rank& rank) {
    const int prefix = rank.exscan_sum(10);
    EXPECT_EQ(prefix, rank.id() * 10);
  });
}

TEST(Collectives, AlltoallvDeliversExactly) {
  const int p = 6;
  ThreadTeam team(Topology{p, 3});
  team.run([&](Rank& rank) {
    // Rank r sends r*1000+d repeated (d+1) times to each destination d.
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d)
      out[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(d + 1),
                                              rank.id() * 1000 + d);
    const auto in = rank.alltoallv(out);
    // This rank receives (id+1) copies of s*1000+id from every sender s.
    ASSERT_EQ(in.size(), static_cast<std::size_t>(p * (rank.id() + 1)));
    std::size_t idx = 0;
    for (int s = 0; s < p; ++s)
      for (int c = 0; c <= rank.id(); ++c)
        EXPECT_EQ(in[idx++], s * 1000 + rank.id());
  });
}

TEST(Collectives, AlltoallvAllEmptyDestinations) {
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  team.run([&](Rank& rank) {
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    const auto in = rank.alltoallv(out);
    EXPECT_TRUE(in.empty());
  });
}

TEST(Collectives, AlltoallvSomeEmptyContributions) {
  // Only even ranks send; everyone still converges and receives exactly
  // the even ranks' payloads.
  const int p = 6;
  ThreadTeam team(Topology{p, 3});
  team.run([&](Rank& rank) {
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    if (rank.id() % 2 == 0)
      for (int d = 0; d < p; ++d)
        out[static_cast<std::size_t>(d)].push_back(rank.id());
    const auto in = rank.alltoallv(out);
    ASSERT_EQ(in.size(), 3u);  // ranks 0, 2, 4
    EXPECT_EQ(in, (std::vector<int>{0, 2, 4}));
  });
}

TEST(Collectives, AllgathervAllEmpty) {
  ThreadTeam team(Topology{4, 2});
  team.run([&](Rank& rank) {
    const auto all = rank.allgatherv(std::vector<int>{});
    EXPECT_TRUE(all.empty());
  });
}

TEST(Collectives, SingleRankTeam) {
  // A team of one: every collective degenerates to the identity and must
  // not deadlock on itself.
  ThreadTeam team(Topology{1, 1});
  team.run([&](Rank& rank) {
    EXPECT_EQ(rank.nranks(), 1);
    rank.barrier();
    EXPECT_EQ(rank.allreduce_sum(7), 7);
    EXPECT_EQ(rank.allreduce_max(-3), -3);
    EXPECT_EQ(rank.exscan_sum(5), 0);
    EXPECT_DOUBLE_EQ(rank.broadcast(1.5, 0), 1.5);
    EXPECT_EQ(rank.allgather(9), std::vector<int>{9});
    EXPECT_EQ(rank.allgatherv(std::vector<int>{1, 2}),
              (std::vector<int>{1, 2}));
    std::vector<std::vector<int>> out{{42}};
    EXPECT_EQ(rank.alltoallv(out), std::vector<int>{42});
    rank.barrier();
  });
}

TEST(Collectives, RepeatedBarriersStayInLockstep) {
  ThreadTeam team(Topology{8, 2});
  std::atomic<int> phase_sum{0};
  team.run([&](Rank& rank) {
    for (int round = 0; round < 50; ++round) {
      phase_sum.fetch_add(1);
      rank.barrier();
      EXPECT_EQ(phase_sum.load() % 8, 0) << "round " << round;
      rank.barrier();
    }
  });
}

// ---- DistHashMap ----

using Map = DistHashMap<std::uint64_t, std::uint64_t>;

struct SumMerge {
  void operator()(std::uint64_t& a, const std::uint64_t& b) const { a += b; }
};
using CountMap = DistHashMap<std::uint64_t, std::uint64_t,
                             std::hash<std::uint64_t>, SumMerge>;

TEST(DistHashMap, InsertFindAcrossRanks) {
  ThreadTeam team(Topology{4, 2});
  Map map(team, Map::Config{.global_capacity = 1024, .flush_threshold = 16});
  team.run([&](Rank& rank) {
    // Each rank inserts a disjoint key range.
    for (std::uint64_t i = 0; i < 100; ++i) {
      const std::uint64_t key = static_cast<std::uint64_t>(rank.id()) * 1000 + i;
      map.update(rank, key, key * 2);
    }
    rank.barrier();
    // Every rank can read every key.
    for (int r = 0; r < rank.nranks(); ++r) {
      for (std::uint64_t i = 0; i < 100; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(r) * 1000 + i;
        const auto v = map.find(rank, key);
        ASSERT_TRUE(v.has_value()) << key;
        EXPECT_EQ(*v, key * 2);
      }
    }
    EXPECT_FALSE(map.find(rank, 999999u).has_value());
  });
  EXPECT_EQ(map.size_unsafe(), 400u);
}

TEST(DistHashMap, ConcurrentSumsAreExact) {
  // All ranks hammer the same small key set with additive updates; the
  // totals must be exact (per-bucket locking, no lost updates).
  const int p = 8;
  ThreadTeam team(Topology{p, 4});
  CountMap map(team, CountMap::Config{.global_capacity = 64, .flush_threshold = 8});
  const int updates_per_rank = 5000;
  team.run([&](Rank& rank) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(rank.id()));
    for (int i = 0; i < updates_per_rank; ++i)
      map.update(rank, rng() % 10, 1);
  });
  std::atomic<std::uint64_t> total{0};
  team.run([&](Rank& rank) {
    if (!rank.is_root()) return;
    for (std::uint64_t key = 0; key < 10; ++key)
      total += map.find(rank, key).value_or(0);
  });
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(p) * updates_per_rank);
}

TEST(DistHashMap, BufferedPathMatchesUnbuffered) {
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  CountMap direct(team, CountMap::Config{.global_capacity = 2048, .flush_threshold = 1});
  CountMap buffered(team, CountMap::Config{.global_capacity = 2048, .flush_threshold = 64});
  team.run([&](Rank& rank) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(rank.id()) + 99);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = rng() % 500;
      direct.update(rank, key, 1);
      buffered.update_buffered(rank, key, 1);
    }
    buffered.flush(rank);
    rank.barrier();
    for (std::uint64_t key = 0; key < 500; ++key)
      EXPECT_EQ(direct.find(rank, key).value_or(0),
                buffered.find(rank, key).value_or(0));
  });
}

TEST(DistHashMap, AggregatingStoresReduceMessageCount) {
  const int p = 4;
  ThreadTeam team(Topology{p, 1});  // every rank its own node
  CountMap fine(team, CountMap::Config{.global_capacity = 4096, .flush_threshold = 1});
  // Key ≡ (rank+1) mod p, so every update targets a remote owner
  // (std::hash<uint64_t> is the identity in libstdc++).
  auto remote_key = [p](int rank, std::uint64_t i) {
    return i * static_cast<std::uint64_t>(p) +
           static_cast<std::uint64_t>((rank + 1) % p);
  };
  team.run([&](Rank& rank) {
    for (std::uint64_t i = 0; i < 1000; ++i)
      fine.update(rank, remote_key(rank.id(), i), 1);
  });
  const auto fine_stats = team.snapshot_all();
  team.reset_stats();
  CountMap coarse(team, CountMap::Config{.global_capacity = 4096, .flush_threshold = 256});
  team.run([&](Rank& rank) {
    for (std::uint64_t i = 0; i < 1000; ++i)
      coarse.update_buffered(rank, remote_key(rank.id(), i), 1);
    coarse.flush(rank);
  });
  const auto coarse_stats = team.snapshot_all();
  std::uint64_t fine_msgs = 0;
  std::uint64_t coarse_msgs = 0;
  for (int r = 0; r < p; ++r) {
    fine_msgs += fine_stats[static_cast<std::size_t>(r)].total_msgs();
    coarse_msgs += coarse_stats[static_cast<std::size_t>(r)].total_msgs();
  }
  // 256-element batches should cut message count by roughly 256x.
  EXPECT_GT(fine_msgs, coarse_msgs * 100);
}

TEST(DistHashMap, ModifyInPlace) {
  ThreadTeam team(Topology{3, 3});
  Map map(team, Map::Config{.global_capacity = 64, .flush_threshold = 4});
  team.run([&](Rank& rank) {
    if (rank.is_root()) map.update(rank, 7u, 100);
    rank.barrier();
    const auto r = map.modify(rank, 7u, [](std::uint64_t& v) {
      ++v;
      return v;
    });
    ASSERT_TRUE(r.has_value());
    rank.barrier();
    EXPECT_EQ(map.find(rank, 7u).value_or(0), 103u);  // 100 + one per rank
    // modify() is a store: reopen the table with a barrier before issuing
    // it, or it races the find() other ranks run in the same phase.
    rank.barrier();
    EXPECT_FALSE(map.modify(rank, 8u, [](std::uint64_t& v) { return v; }).has_value());
  });
}

TEST(DistHashMap, EraseLocalIf) {
  ThreadTeam team(Topology{4, 2});
  Map map(team, Map::Config{.global_capacity = 1024, .flush_threshold = 8});
  team.run([&](Rank& rank) {
    if (rank.is_root())
      for (std::uint64_t i = 0; i < 200; ++i) map.update(rank, i, i);
    rank.barrier();
    map.erase_local_if(rank, [](const std::uint64_t&, const std::uint64_t& v) {
      return v % 2 == 0;
    });
    rank.barrier();
    for (std::uint64_t i = 0; i < 200; ++i)
      EXPECT_EQ(map.find(rank, i).has_value(), i % 2 == 1) << i;
  });
  EXPECT_EQ(map.size_unsafe(), 100u);
}

TEST(DistHashMap, ForEachLocalVisitsOwnShardExactly) {
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  Map map(team, Map::Config{.global_capacity = 4096, .flush_threshold = 8});
  std::atomic<std::uint64_t> visited{0};
  team.run([&](Rank& rank) {
    for (std::uint64_t i = 0; i < 500; ++i)
      if (static_cast<int>(i) % p == rank.id()) map.update(rank, i, 1);
    rank.barrier();
    map.for_each_local(rank, [&](const std::uint64_t& k, std::uint64_t& v) {
      EXPECT_EQ(map.owner_of(k), static_cast<std::uint32_t>(rank.id()));
      EXPECT_EQ(v, 1u);
      visited.fetch_add(1);
    });
  });
  EXPECT_EQ(visited.load(), 500u);
}

TEST(DistHashMap, CustomRankMapperControlsPlacement) {
  ThreadTeam team(Topology{4, 2});
  Map map(team, Map::Config{.global_capacity = 256, .flush_threshold = 4});
  map.set_rank_mapper([](std::uint64_t) { return 3u; });  // everything on rank 3
  team.run([&](Rank& rank) {
    map.update(rank, static_cast<std::uint64_t>(rank.id()), 1);
    rank.barrier();
    EXPECT_EQ(map.local_size(3), 4u);
    EXPECT_EQ(map.local_size(rank.id() == 3 ? 0 : rank.id()), 0u);
  });
}

// ---- AggregatingEngine / batched lookups / read cache ----

TEST(AggregatingEngine, FlushesAtThresholdAndDrainsRoundRobin) {
  AggregatingEngine<int> engine(4, 3);
  std::vector<std::pair<std::uint32_t, std::vector<int>>> batches;
  auto record = [&](std::uint32_t dest, std::vector<int>& ops) {
    batches.emplace_back(dest, ops);
  };
  // Two ops stay buffered; the third auto-flushes the full batch.
  engine.enqueue(0, 2, 10, record);
  engine.enqueue(0, 2, 11, record);
  EXPECT_TRUE(batches.empty());
  EXPECT_EQ(engine.pending(0), 2u);
  engine.enqueue(0, 2, 12, record);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].first, 2u);
  EXPECT_EQ(batches[0].second, (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(engine.pending(0), 0u);

  // flush() drains round-robin from the initiator's successor: rank 2's
  // buffers drain in dest order 3, 0, 1.
  batches.clear();
  engine.enqueue(2, 0, 1, record);
  engine.enqueue(2, 1, 2, record);
  engine.enqueue(2, 3, 3, record);
  engine.flush(2, record);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].first, 3u);
  EXPECT_EQ(batches[1].first, 0u);
  EXPECT_EQ(batches[2].first, 1u);
  EXPECT_EQ(engine.pending(2), 0u);
  // A rank that never buffered flushes as a no-op (lazy rows).
  engine.flush(1, record);
  EXPECT_EQ(batches.size(), 3u);
}

TEST(ReadCache, LruEvictionAndCounters) {
  ReadCache<std::uint64_t, int, std::hash<std::uint64_t>> cache(2);
  EXPECT_EQ(cache.lookup(1), nullptr);
  cache.insert(1, 100);
  cache.insert(2, 200);
  ASSERT_NE(cache.lookup(1), nullptr);  // 1 is now most recent
  cache.insert(3, 300);                 // evicts 2 (LRU)
  EXPECT_EQ(cache.lookup(2), nullptr);
  ASSERT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(*cache.lookup(3), 300);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ReadCache, VersionChangeDropsEverything) {
  ReadCache<std::uint64_t, int, std::hash<std::uint64_t>> cache(8);
  cache.check_version(1);
  cache.insert(5, 50);
  cache.check_version(1);  // unchanged version: cache intact
  EXPECT_NE(cache.lookup(5), nullptr);
  cache.check_version(2);  // table was written: everything goes
  EXPECT_EQ(cache.lookup(5), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DistHashMap, BatchedLookupsMatchFind) {
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  Map map(team, Map::Config{.global_capacity = 2048, .flush_threshold = 32});
  team.run([&](Rank& rank) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      const std::uint64_t key = static_cast<std::uint64_t>(rank.id()) * 1000 + i;
      map.update(rank, key, key + 7);
    }
    rank.barrier();
    // Probe every key plus a stripe of absent ones; replies (in any order,
    // possibly inside find_buffered) must match the fine-grained path.
    std::vector<std::uint64_t> keys;
    for (int r = 0; r < p; ++r)
      for (std::uint64_t i = 0; i < 250; ++i)  // 200 present + 50 absent
        keys.push_back(static_cast<std::uint64_t>(r) * 1000 + i);
    // Fine-grained reference pass first, then a barrier: the comparison
    // itself must not mix fine and batched lookups in one phase (the
    // checker's mixed-access rule — calling find() from inside a batched
    // reply handler was exactly that).
    std::vector<std::optional<std::uint64_t>> expected;
    expected.reserve(keys.size());
    for (const auto& key : keys) expected.push_back(map.find(rank, key));
    rank.barrier();
    std::vector<char> answered(keys.size(), 0);
    auto check = [&](const std::uint64_t& key, const std::uint64_t* value,
                     std::uint64_t tag) {
      answered[static_cast<std::size_t>(tag)] = 1;
      const auto& exp = expected[static_cast<std::size_t>(tag)];
      ASSERT_EQ(value != nullptr, exp.has_value()) << key;
      if (value != nullptr) {
        EXPECT_EQ(*value, *exp);
      }
    };
    for (std::size_t i = 0; i < keys.size(); ++i)
      map.find_buffered(rank, keys[i], i, check);
    map.process_lookups(rank, check);
    for (std::size_t i = 0; i < keys.size(); ++i)
      EXPECT_EQ(answered[i], 1) << keys[i];
  });
}

TEST(DistHashMap, DrainInvariantAfterFlushAndProcessLookups) {
  const int p = 4;
  ThreadTeam team(Topology{p, 2});
  Map map(team, Map::Config{.global_capacity = 1024, .flush_threshold = 1000});
  std::atomic<std::uint64_t> replies{0};
  team.run([&](Rank& rank) {
    // Far below the threshold: everything stays buffered until the
    // explicit drain, and nothing is left behind afterwards.
    for (std::uint64_t i = 0; i < 10; ++i)
      map.update_buffered(rank, i * 131, i);
    EXPECT_GT(map.pending_store_ops(rank.id()), 0u);
    map.flush(rank);
    EXPECT_EQ(map.pending_store_ops(rank.id()), 0u);
    rank.barrier();

    auto count = [&](const std::uint64_t&, const std::uint64_t*,
                     std::uint64_t) { replies.fetch_add(1); };
    for (std::uint64_t i = 0; i < 10; ++i)
      map.find_buffered(rank, i * 131, i, count);
    map.process_lookups(rank, count);
    EXPECT_EQ(map.pending_lookups(rank.id()), 0u);
  });
  // Every queued lookup produced exactly one reply.
  EXPECT_EQ(replies.load(), static_cast<std::uint64_t>(p) * 10u);
}

TEST(DistHashMap, ReadCacheNeverServesStaleValues) {
  // A value cached during one read phase must not survive a write phase:
  // the table's write version moves and the cache self-invalidates.
  ThreadTeam team(Topology{2, 1});
  Map map(team, Map::Config{.global_capacity = 64, .flush_threshold = 8});
  map.set_rank_mapper([](std::uint64_t) { return 1u; });  // all keys on rank 1
  team.run([&](Rank& rank) {
    if (rank.id() == 1) map.update(rank, 7u, 100);
    rank.barrier();
    if (rank.id() == 0) {
      map.enable_read_cache(rank, 16);
      std::uint64_t seen = 0;
      auto capture = [&](const std::uint64_t&, const std::uint64_t* v,
                         std::uint64_t) { seen = v ? *v : 0; };
      map.find_buffered(rank, 7u, 0, capture);
      map.process_lookups(rank, capture);
      EXPECT_EQ(seen, 100u);
      // Cached now: a repeat lookup is a hit.
      map.find_buffered(rank, 7u, 0, capture);
      map.process_lookups(rank, capture);
      EXPECT_EQ(map.read_cache_stats(rank.id()).hits, 1u);
    }
    rank.barrier();
    if (rank.id() == 1) map.update(rank, 7u, 999);  // write phase
    rank.barrier();
    if (rank.id() == 0) {
      // Deliberate contract violation: the cache is left enabled across the
      // write phase above, precisely to prove the version bump makes it
      // self-invalidate (the safety net under the stale-cache-across-write
      // rule). RelaxedPhase documents the intent and keeps the checker from
      // aborting the probe.
      pgas::RelaxedPhase relaxed(rank, map);
      std::uint64_t seen = 0;
      auto capture = [&](const std::uint64_t&, const std::uint64_t* v,
                         std::uint64_t) { seen = v ? *v : 0; };
      map.find_buffered(rank, 7u, 0, capture);
      map.process_lookups(rank, capture);
      EXPECT_EQ(seen, 999u) << "cache served a value across a write phase";
      map.disable_read_cache(rank);
    }
  });
}

TEST(DistHashMap, CachedBatchedLookupsCutOffnodeMessages) {
  // Re-probing the same remote key set: fine-grained pays one off-node
  // message per probe; batching pays one per batch; the cache answers
  // repeats locally.
  const int p = 4;
  ThreadTeam team(Topology{p, 1});  // every rank its own node
  Map map(team, Map::Config{.global_capacity = 4096, .flush_threshold = 64});
  auto remote_key = [p](int rank, std::uint64_t i) {
    return i * static_cast<std::uint64_t>(p) +
           static_cast<std::uint64_t>((rank + 1) % p);
  };
  team.run([&](Rank& rank) {
    for (std::uint64_t i = 0; i < 100; ++i)
      map.update(rank, remote_key((rank.id() + p - 1) % p, i), 1);
  });
  team.reset_stats();
  const int rounds = 20;
  auto sink = [](const std::uint64_t&, const std::uint64_t*, std::uint64_t) {};
  team.run([&](Rank& rank) {
    for (int round = 0; round < rounds; ++round)
      for (std::uint64_t i = 0; i < 100; ++i)
        (void)map.find(rank, remote_key(rank.id(), i));
  });
  const auto fine = team.snapshot_all();
  team.reset_stats();
  team.run([&](Rank& rank) {
    map.enable_read_cache(rank, 4096);
    for (int round = 0; round < rounds; ++round) {
      for (std::uint64_t i = 0; i < 100; ++i)
        map.find_buffered(rank, remote_key(rank.id(), i), i, sink);
      map.process_lookups(rank, sink);  // round 1's replies fill the cache
    }
    map.disable_read_cache(rank);
  });
  const auto cached = team.snapshot_all();
  std::uint64_t fine_msgs = 0;
  std::uint64_t cached_msgs = 0;
  std::uint64_t cache_hits = 0;
  for (int r = 0; r < p; ++r) {
    fine_msgs += fine[static_cast<std::size_t>(r)].offnode_msgs;
    cached_msgs += cached[static_cast<std::size_t>(r)].offnode_msgs;
    cache_hits += cached[static_cast<std::size_t>(r)].read_cache_hits;
  }
  EXPECT_EQ(fine_msgs, static_cast<std::uint64_t>(p) * rounds * 100);
  // Round 1 misses fill the cache (100 keys / 64-batches = 2 messages per
  // rank); rounds 2..20 are all hits.
  EXPECT_EQ(cached_msgs, static_cast<std::uint64_t>(p) * 2);
  EXPECT_EQ(cache_hits, static_cast<std::uint64_t>(p) * (rounds - 1) * 100);
}

TEST(DistHashMap, FindMissChargesKeyOnlyBytes) {
  // Satellite of the charging model: a miss ships only the key-sized
  // request; a hit additionally ships the value back.
  ThreadTeam team(Topology{2, 1});
  Map map(team, Map::Config{.global_capacity = 64, .flush_threshold = 8});
  map.set_rank_mapper([](std::uint64_t) { return 1u; });
  team.run([&](Rank& rank) {
    if (rank.id() == 1) map.update(rank, 1u, 5);
  });
  team.reset_stats();
  team.run([&](Rank& rank) {
    if (rank.id() == 0) {
      EXPECT_TRUE(map.find(rank, 1u).has_value());   // hit
      EXPECT_FALSE(map.find(rank, 2u).has_value());  // miss
    }
  });
  const auto stats = team.snapshot_all();
  EXPECT_EQ(stats[0].offnode_bytes,
            2 * sizeof(std::uint64_t)      // two key-sized requests
                + sizeof(std::uint64_t));  // one value-sized reply (the hit)
  EXPECT_EQ(stats[0].offnode_msgs, 2u);
}

TEST(CommStats, LocalityClassification) {
  // 2 nodes of 2 ranks. Rank 0 sends to rank 1 (on-node) and rank 2
  // (off-node) via a rank mapper that pins keys to specific owners.
  ThreadTeam team(Topology{4, 2});
  Map map(team, Map::Config{.global_capacity = 64, .flush_threshold = 1});
  map.set_rank_mapper([](std::uint64_t h) { return static_cast<std::uint32_t>(h % 4); });
  team.run([&](Rank& rank) {
    if (rank.id() == 0) {
      // std::hash<uint64_t> is identity for libstdc++, so key == owner here.
      map.update(rank, 0u, 1);  // local
      map.update(rank, 1u, 1);  // on-node
      map.update(rank, 2u, 1);  // off-node
      map.update(rank, 3u, 1);  // off-node
    }
  });
  const auto stats = team.snapshot_all();
  EXPECT_EQ(stats[0].local_accesses, 1u);
  EXPECT_EQ(stats[0].onnode_msgs, 1u);
  EXPECT_EQ(stats[0].offnode_msgs, 2u);
  EXPECT_EQ(stats[1].recv_ops, 1u);
  EXPECT_EQ(stats[2].recv_ops, 1u);
  EXPECT_EQ(stats[3].recv_ops, 1u);
}

TEST(MachineModel, OffNodeDominatesAndLoadImbalanceShows) {
  MachineModel model;
  CommStatsSnapshot local_heavy;
  local_heavy.local_accesses = 1000;
  CommStatsSnapshot off_heavy;
  off_heavy.offnode_msgs = 1000;
  EXPECT_GT(model.rank_seconds(off_heavy), 10 * model.rank_seconds(local_heavy));

  // Phase time is the max over ranks: one hot rank dominates.
  CommStatsSnapshot idle;
  CommStatsSnapshot hot;
  hot.recv_ops = 1'000'000;
  const Topology topo{4, 2};
  const double balanced =
      model.phase_seconds({idle, idle, idle, idle}, topo);
  const double imbalanced = model.phase_seconds({idle, idle, idle, hot}, topo);
  EXPECT_GT(imbalanced, balanced + 0.05);
}

TEST(MachineModel, IoSaturates) {
  MachineModel model;
  const std::uint64_t bytes = 100ull << 30;
  const double t1 = model.io_seconds(bytes, 1);
  const double t8 = model.io_seconds(bytes, 8);
  EXPECT_NEAR(t1 / t8, 8.0, 0.01);  // scales below saturation
  const double t100 = model.io_seconds(bytes, 100);
  const double t200 = model.io_seconds(bytes, 200);
  EXPECT_NEAR(t100, t200, 1e-9);  // flat beyond the saturation point
}

TEST(CommStats, SnapshotArithmetic) {
  CommStats stats;
  stats.add_work(10);
  stats.add_offnode_msg(100);
  const auto before = stats.snapshot();
  stats.add_work(5);
  stats.add_onnode_msg(50);
  const auto delta = stats.snapshot() - before;
  EXPECT_EQ(delta.work_units, 5u);
  EXPECT_EQ(delta.onnode_msgs, 1u);
  EXPECT_EQ(delta.offnode_msgs, 0u);
  EXPECT_EQ(delta.onnode_bytes, 50u);
}

}  // namespace
}  // namespace hipmer::pgas
