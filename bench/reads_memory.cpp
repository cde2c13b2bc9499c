// Resident read memory: packed arena vs std::vector<seq::Read>.
//
// The packed arena (src/seq/packed_read_arena.hpp) is how the pipeline holds
// reads: 2-bit bases + exception list, mode-dispatched quality compression
// and an offset-indexed name arena should cut resident read bytes >= 3x
// against three heap strings per record. This bench measures it two ways
// on the same records:
//
//   * accounted bytes — PackedReads::memory_bytes() against
//     bench::read_vector_bytes() (both capacity-true, what the containers
//     hold), the primary ratio the README quotes;
//   * process RSS deltas — /proc/self/status before/after building each
//     store, tying the accounting to what the OS actually charges us.
//
// Two quality models bracket the codec: the simulator's i.i.d. Phred
// [30,41] stream (high entropy, RLE-hostile — the 4-bit band mode carries
// it) and binned-bursty qualities as modern basecallers emit (RLE wins).
// Plain vectors are measured as built; packed arenas are compacted
// post-ingest exactly as the pipeline leaves them.

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "seq/packed_read_arena.hpp"
#include "sim/datasets.hpp"
#include "util/table.hpp"

namespace {

// Rewrite qualities with a binned-bursty model: four quantized score
// levels, geometric run lengths (mean ~10).
void rebin_quals(std::vector<hipmer::seq::Read>& reads, unsigned seed) {
  static const char kBins[] = {'#', '-', '8', 'F'};
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> bin(0, 3);
  for (auto& r : reads) {
    char cur = kBins[bin(rng)];
    for (auto& c : r.quals) {
      if (coin(rng) < 0.1) cur = kBins[bin(rng)];
      c = cur;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hipmer;
  util::Options opts(argc, argv);
  const auto genome_len =
      static_cast<std::uint64_t>(opts.get_int("genome", 1'000'000));
  const double coverage = static_cast<double>(opts.get_int("coverage", 25));

  auto ds = sim::make_human_like(genome_len, 4242, coverage);
  std::vector<seq::Read> sim_reads;
  for (auto& lib : ds.reads)
    sim_reads.insert(sim_reads.end(), lib.begin(), lib.end());
  std::vector<seq::Read> binned_reads = sim_reads;
  rebin_quals(binned_reads, 77);

  struct Case {
    const char* name;
    const std::vector<seq::Read>* reads;
  };
  const Case cases[] = {{"sim_iid_quals", &sim_reads},
                        {"binned_quals", &binned_reads}};

  util::TextTable table({"dataset", "reads", "bases", "plain_MB", "packed_MB",
                         "ratio", "plain_B_per_read", "packed_B_per_read",
                         "plain_rss_MB", "packed_rss_MB"});
  // Keep every container alive until the end so RSS deltas are not
  // polluted by the allocator recycling freed pages.
  std::vector<seq::PackedReads> keep_packed;
  std::vector<std::vector<seq::Read>> keep_plain;
  keep_packed.reserve(std::size(cases));
  keep_plain.reserve(std::size(cases));
  for (const auto& c : cases) {
    std::size_t bases = 0;
    for (const auto& r : *c.reads) bases += r.seq.size();

    const auto rss0 = bench::resident_memory();
    auto& packed = keep_packed.emplace_back();
    packed.reserve(c.reads->size(), bases);
    for (const auto& r : *c.reads) packed.append(r);
    packed.shrink_to_fit();
    const auto rss1 = bench::resident_memory();

    auto& plain = keep_plain.emplace_back();
    for (const auto& r : *c.reads) plain.push_back(r);
    const auto rss2 = bench::resident_memory();

    const auto n = static_cast<double>(c.reads->size());
    const auto plain_b = static_cast<double>(bench::read_vector_bytes(plain));
    const auto packed_b = static_cast<double>(packed.memory_bytes());
    table.add_row(
        {c.name, std::to_string(c.reads->size()), std::to_string(bases),
         util::TextTable::fmt(plain_b / 1e6, 2),
         util::TextTable::fmt(packed_b / 1e6, 2),
         util::TextTable::fmt(plain_b / packed_b, 2),
         util::TextTable::fmt(plain_b / n, 1),
         util::TextTable::fmt(packed_b / n, 1),
         util::TextTable::fmt(static_cast<double>(rss2.current_bytes -
                                                  rss1.current_bytes) /
                                  1e6,
                              2),
         util::TextTable::fmt(static_cast<double>(rss1.current_bytes -
                                                  rss0.current_bytes) /
                                  1e6,
                              2)});
  }

  bench::emit("reads_memory",
              "Resident read memory: packed 2-bit arena vs "
              "std::vector<seq::Read> (plain as-built, packed compacted "
              "post-ingest as the pipeline holds them)",
              table);
  return 0;
}
