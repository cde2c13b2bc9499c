// Ablation — the two memory/communication optimizations DESIGN.md calls
// out beyond the headline figures:
//
//   1. **Aggregating stores** (§4.1/§4.6 and [13]): batching the k-mer
//      instances bound for each owner cuts the message count on the
//      critical path by the batch factor. We sweep the per-rank all-to-all
//      batch (`chunk_kmers`, instances per round) of k-mer analysis's
//      candidate and counting exchanges and report message counts +
//      modeled time.
//   2. **Bloom filter** (§3.1): admitting k-mers into the main table only
//      on their second sighting keeps the (overwhelmingly singleton,
//      erroneous) majority of distinct k-mers out — "memory requirement
//      reductions of up to 85%". We report main-table entries and resident
//      bytes with and without the filter.

#include <cstdio>

#include "bench_common.hpp"
#include "kcount/kmer_analysis.hpp"
#include "pgas/thread_team.hpp"
#include "sim/datasets.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hipmer;
  util::Options opts(argc, argv);
  const auto genome_len =
      static_cast<std::uint64_t>(opts.get_int("genome", 400'000));
  const int ranks = static_cast<int>(opts.get_int("ranks", 16));
  auto ds = sim::make_human_like(genome_len, 2221);
  const pgas::Topology topo{ranks, 4};
  pgas::MachineModel machine;

  auto run = [&](bool bloom, std::size_t chunk) {
    pgas::ThreadTeam team(topo);
    kcount::KmerAnalysisConfig cfg;
    cfg.k = 31;
    cfg.use_bloom = bloom;
    cfg.chunk_kmers = chunk;
    auto ka = std::make_unique<kcount::KmerAnalysis>(team, cfg);
    const auto before = team.snapshot_all();
    team.run([&](pgas::Rank& rank) {
      std::vector<seq::Read> mine;
      for (std::size_t i = static_cast<std::size_t>(rank.id());
           i < ds.reads[0].size(); i += static_cast<std::size_t>(ranks))
        mine.push_back(ds.reads[0][i]);
      ka->run(rank, mine);
    });
    const auto delta = bench::snapshot_delta(before, team.snapshot_all());
    struct Out {
      double modeled;
      std::uint64_t msgs;
      std::size_t entries;
      std::size_t bloom_bytes;
    } out{machine.phase_seconds_no_io(delta),
          bench::sum_stats(delta).total_msgs(), ka->peak_table_entries(),
          ka->bloom_bytes()};
    return out;
  };

  util::TextTable agg({"chunk_kmers", "messages", "modeled_s", "msg_reduction"});
  double base_msgs = 0;
  for (std::size_t chunk : {std::size_t{64}, std::size_t{512},
                            std::size_t{4096}, std::size_t{32768}}) {
    const auto r = run(true, chunk);
    if (base_msgs == 0) base_msgs = static_cast<double>(r.msgs);
    agg.add_row({std::to_string(chunk), std::to_string(r.msgs),
                 util::TextTable::fmt(r.modeled, 3),
                 util::TextTable::fmt(base_msgs / static_cast<double>(r.msgs), 1) + "x"});
  }
  bench::emit("ablation_aggregating_stores",
              "Ablation: all-to-all batch (k-mer instances per rank per "
              "round) of k-mer analysis (messages shrink ~linearly with the "
              "batch)",
              agg);

  util::TextTable bloom({"config", "main_table_entries", "bloom_bytes",
                         "entry_reduction"});
  const auto with = run(true, 32768);
  const auto without = run(false, 32768);
  bloom.add_row({"bloom_on", std::to_string(with.entries),
                 std::to_string(with.bloom_bytes),
                 util::TextTable::fmt_pct(
                     1.0 - static_cast<double>(with.entries) /
                               static_cast<double>(without.entries))});
  bloom.add_row({"bloom_off", std::to_string(without.entries), "0", "0.0%"});
  bench::emit("ablation_bloom_filter",
              "Ablation: Bloom filter singleton exclusion (paper: up to 85% "
              "memory reduction on error-containing data)",
              bloom);
  return 0;
}
