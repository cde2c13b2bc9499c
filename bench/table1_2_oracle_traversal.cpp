// Tables 1 & 2 — communication-avoiding de Bruijn graph traversal (§3.2,
// §5.2).
//
// Protocol, as in the paper: assemble one individual ("NA12878"), build the
// oracle partitioning from its contigs, then traverse the de Bruijn graph
// of a *different individual of the same species* (0.2% diverged) under
// three regimes: no oracle, "oracle-1" (1x memory) and "oracle-4" (4x
// memory). Table 1 reports traversal speedup; Table 2 the fraction of
// traversal lookups that leave the node and the reduction in off-node
// communication. Paper numbers at 480/1,920 cores: speedups 1.4x/2.8x and
// 1.3x/1.9x; off-node lookups 92.8% -> 54.6% (oracle-1) -> 22.8%
// (oracle-4).
//
// Table 2 is additionally broken down by lookup path: the same read-probe
// workload resolved fine-grained (one message per off-node key), batched
// (lookups aggregated per owner), and batched behind the per-rank software
// read cache — the journal version's cached + aggregated lookups.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "dbg/contig_generator.hpp"
#include "dbg/oracle.hpp"
#include "kcount/kmer_analysis.hpp"
#include "seq/kmer_scanner.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "util/timer.hpp"

namespace {

using namespace hipmer;

struct TraversalRun {
  double modeled = 0.0;
  double wall = 0.0;
  dbg::ContigGenerator::LookupStats lookups;
};

/// K-mer analysis for `reads` on `team`; returns the analysis object.
std::unique_ptr<kcount::KmerAnalysis> analyze(pgas::ThreadTeam& team,
                                              const std::vector<seq::Read>& reads,
                                              int k) {
  kcount::KmerAnalysisConfig cfg;
  cfg.k = k;
  auto ka = std::make_unique<kcount::KmerAnalysis>(team, cfg);
  team.run([&](pgas::Rank& rank) {
    std::vector<seq::Read> mine;
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += static_cast<std::size_t>(rank.nranks()))
      mine.push_back(reads[i]);
    ka->run(rank, mine);
  });
  return ka;
}

TraversalRun traverse(pgas::ThreadTeam& team, kcount::KmerAnalysis& ka, int k,
                      const dbg::OraclePartition* oracle,
                      const pgas::MachineModel& machine,
                      std::vector<dbg::Contig>* contigs_out = nullptr,
                      std::unique_ptr<dbg::ContigGenerator>* gen_out = nullptr) {
  std::size_t total_ufx = 0;
  for (int r = 0; r < team.nranks(); ++r) total_ufx += ka.ufx(r).size();
  dbg::ContigGenConfig cfg;
  cfg.k = k;
  auto gen = std::make_unique<dbg::ContigGenerator>(team, cfg, total_ufx);
  if (oracle) gen->set_oracle(oracle);
  team.run(
      [&](pgas::Rank& rank) { gen->build_graph(rank, ka.ufx(rank.id())); });

  const auto before = team.snapshot_all();
  util::WallTimer timer;
  team.run([&](pgas::Rank& rank) { gen->traverse(rank); });
  TraversalRun run;
  run.wall = timer.seconds();
  run.modeled = machine.phase_seconds_no_io(
      bench::snapshot_delta(before, team.snapshot_all()));
  run.lookups = gen->total_lookup_stats();
  if (contigs_out) *contigs_out = gen->all_contigs();
  if (gen_out) *gen_out = std::move(gen);
  return run;
}

/// The three ways a read-only phase can probe the distributed graph. Fine
/// issues one message per off-node key; batched aggregates lookups per
/// owner; cached additionally fronts the batched path with the per-rank
/// software read cache (journal version of the paper, §"caching and
/// aggregated lookups").
enum class LookupPath { kFine, kBatched, kBatchedCached };

struct ProbeResult {
  std::uint64_t offnode_msgs = 0;
  std::uint64_t cache_hits = 0;
};

/// Oracle-traversal probe workload: each rank resolves the k-mers of its
/// share of `reads` against the (already traversed) graph via `path`.
ProbeResult probe_lookups(pgas::ThreadTeam& team, dbg::ContigGenerator& gen,
                          const std::vector<seq::Read>& reads, int k,
                          LookupPath path) {
  const auto before = team.snapshot_all();
  team.run([&](pgas::Rank& rank) {
    auto& graph = gen.graph();
    if (path == LookupPath::kBatchedCached)
      graph.enable_read_cache(rank, 1 << 15);
    auto sink = [](const seq::KmerT&, const dbg::ContigGenerator::Node*,
                   std::uint64_t) {};
    for (std::size_t i = static_cast<std::size_t>(rank.id()); i < reads.size();
         i += static_cast<std::size_t>(rank.nranks())) {
      for (seq::KmerScanner<seq::KmerT::kMaxK> it(reads[i].seq, k); !it.done();
           it.next()) {
        if (path == LookupPath::kFine) {
          (void)graph.find(rank, it.canonical());
        } else {
          graph.find_buffered(rank, it.canonical(), 0, sink);
        }
      }
    }
    if (path != LookupPath::kFine) graph.process_lookups(rank, sink);
    if (path == LookupPath::kBatchedCached) graph.disable_read_cache(rank);
    rank.barrier();
  });
  const auto total =
      bench::sum_stats(bench::snapshot_delta(before, team.snapshot_all()));
  return ProbeResult{total.offnode_msgs, total.read_cache_hits};
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const auto genome_len =
      static_cast<std::uint64_t>(opts.get_int("genome", 600'000));
  const int k = static_cast<int>(opts.get_int("k", 31));

  // Two individuals of the same species (paper: humans differ by 0.1-0.4%).
  sim::GenomeConfig gc;
  gc.length = genome_len;
  gc.repeat_fraction = 0.12;  // enough contigs for balanced oracle assignment
  gc.repeat_families = 8;
  gc.repeat_unit_length = 200;
  gc.seed = 515;
  const auto individual1 = sim::simulate_genome(gc);
  sim::Genome individual2;
  individual2.primary = sim::mutate_individual(individual1.primary, 0.002, 517);

  sim::LibraryConfig lc;
  lc.read_length = 101;
  lc.coverage = 18.0;
  lc.error_rate = 0.001;
  lc.seed = 519;
  const auto reads1 = sim::simulate_library(individual1, lc);
  lc.seed = 521;
  const auto reads2 = sim::simulate_library(individual2, lc);
  std::printf("Tables 1+2 reproduction: %llu bp individuals, %zu/%zu reads\n",
              static_cast<unsigned long long>(genome_len), reads1.size(),
              reads2.size());

  pgas::MachineModel machine;
  // Paper concurrencies 480 and 1,920 map to our two scale points.
  std::vector<bench::ScalePoint> axis{{16, 4}, {64, 4}};
  if (opts.has("ranks"))
    axis = {{static_cast<int>(opts.get_int("ranks", 16)), 4}};

  util::TextTable t1({"ranks", "no_oracle_s", "oracle1_s", "oracle4_s",
                      "speedup1", "speedup4", "wall_no", "wall_o4"});
  util::TextTable t2({"ranks", "lookup_path", "offnode_msgs", "msgs_vs_fine",
                      "offnode_no", "offnode_o1", "offnode_o4",
                      "offnode_o4node", "onnode_o4node", "reduction_o1",
                      "reduction_o4"});

  for (const auto& scale : axis) {
    pgas::ThreadTeam team(scale.topology());
    // Individual 1: assemble and learn the oracle from its contigs.
    auto ka1 = analyze(team, reads1, k);
    std::vector<dbg::Contig> contigs1;
    traverse(team, *ka1, k, nullptr, machine, &contigs1);
    std::vector<std::string> contig_seqs;
    std::size_t total_kmers = 0;
    for (const auto& c : contigs1) {
      contig_seqs.push_back(c.seq);
      total_kmers += c.seq.size();
    }
    const auto oracle1 = dbg::OraclePartition::build(
        contig_seqs, k, scale.topology(), total_kmers);
    const auto oracle4 = dbg::OraclePartition::build(
        contig_seqs, k, scale.topology(), total_kmers * 4);
    // §3.2's SMP refinement: "working with node IDs instead of processor
    // IDs ... avoids the off-node communication while performing
    // intra-node accesses".
    const auto oracle4n = dbg::OraclePartition::build(
        contig_seqs, k, scale.topology(), total_kmers * 4,
        dbg::OraclePartition::Granularity::kNode);

    // Individual 2: traverse its graph under the three regimes. The
    // oracle-4 generator is kept alive for the lookup-path probes below.
    auto ka2 = analyze(team, reads2, k);
    const auto none = traverse(team, *ka2, k, nullptr, machine);
    const auto o1 = traverse(team, *ka2, k, &oracle1, machine);
    std::unique_ptr<dbg::ContigGenerator> gen4;
    const auto o4 = traverse(team, *ka2, k, &oracle4, machine, nullptr, &gen4);
    const auto o4n = traverse(team, *ka2, k, &oracle4n, machine);

    // Lookup-path comparison on the same workload: resolve individual 2's
    // read k-mers against the oracle-4 graph fine-grained, batched, and
    // batched behind the software read cache.
    const auto p_fine = probe_lookups(team, *gen4, reads2, k, LookupPath::kFine);
    const auto p_batched =
        probe_lookups(team, *gen4, reads2, k, LookupPath::kBatched);
    const auto p_cached =
        probe_lookups(team, *gen4, reads2, k, LookupPath::kBatchedCached);

    t1.add_row({std::to_string(scale.ranks),
                util::TextTable::fmt(none.modeled, 4),
                util::TextTable::fmt(o1.modeled, 4),
                util::TextTable::fmt(o4.modeled, 4),
                util::TextTable::fmt(none.modeled / o1.modeled, 2) + "x",
                util::TextTable::fmt(none.modeled / o4.modeled, 2) + "x",
                util::TextTable::fmt(none.wall, 2),
                util::TextTable::fmt(o4.wall, 2)});
    const double fn = none.lookups.offnode_fraction();
    const double f1 = o1.lookups.offnode_fraction();
    const double f4 = o4.lookups.offnode_fraction();
    const double f4n = o4n.lookups.offnode_fraction();
    const double f4n_on =
        static_cast<double>(o4n.lookups.onnode) /
        static_cast<double>(std::max<std::uint64_t>(1, o4n.lookups.total()));
    struct PathRow {
      const char* name;
      std::uint64_t msgs;
    };
    for (const auto& pr :
         {PathRow{"fine", p_fine.offnode_msgs},
          PathRow{"batched", p_batched.offnode_msgs},
          PathRow{"batched_cache", p_cached.offnode_msgs}}) {
      const double vs_fine =
          static_cast<double>(p_fine.offnode_msgs) /
          static_cast<double>(std::max<std::uint64_t>(1, pr.msgs));
      t2.add_row({std::to_string(scale.ranks), pr.name,
                  std::to_string(pr.msgs),
                  util::TextTable::fmt(vs_fine, 1) + "x",
                  util::TextTable::fmt_pct(fn), util::TextTable::fmt_pct(f1),
                  util::TextTable::fmt_pct(f4), util::TextTable::fmt_pct(f4n),
                  util::TextTable::fmt_pct(f4n_on),
                  util::TextTable::fmt_pct(1.0 - f1 / fn),
                  util::TextTable::fmt_pct(1.0 - f4 / fn)});
    }

    std::printf("[ranks=%d] oracle collision rates: 1x=%.3f 4x=%.3f, "
                "memory: %zu KB / %zu KB; probe cache hits: %llu\n",
                scale.ranks, oracle1.collision_rate(), oracle4.collision_rate(),
                oracle1.memory_bytes() >> 10, oracle4.memory_bytes() >> 10,
                static_cast<unsigned long long>(p_cached.cache_hits));
  }

  bench::emit("table1_oracle_traversal",
              "Table 1: traversal speedup from oracle partitioning "
              "(paper: 1.4x/2.8x at 480 cores, 1.3x/1.9x at 1,920)",
              t1);
  bench::emit("table2_offnode_lookups",
              "Table 2: off-node traversal lookups (paper: 92.8% no-oracle "
              "-> 54.6% oracle-1 -> 22.8% oracle-4; reductions 41-76%), "
              "plus off-node messages by lookup path "
              "(fine / batched / batched+cache) on the oracle-4 graph",
              t2);
  return 0;
}
