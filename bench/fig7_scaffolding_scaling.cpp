// Figure 7 — strong scaling of scaffolding for human (left) and wheat
// (right), broken into merAligner / gap closing / remaining scaffolding
// modules (§5.3).
//
// Paper shapes being reproduced:
//   - merAligner is the most expensive scaffolding component and scales
//     best (0.64 efficiency at 32x for human);
//   - gap closing scales worse (I/O- and tail-bound);
//   - the "rest" of scaffolding is comparatively small for human but a
//     much larger fraction for wheat, because the repetitive genome
//     fragments into far more contigs (less graph contraction) and the
//     pipeline runs *four rounds* of scaffolding, inflating the serial
//     ordering/orientation component.

#include <cstdio>

#include "bench_common.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/datasets.hpp"

namespace {

using namespace hipmer;

std::uint64_t gap_offnode_msgs(const pipeline::PipelineResult& result) {
  std::uint64_t n = 0;
  for (const auto& s : result.stages)
    if (s.name == pipeline::kStageGapClosing) n += s.comm.offnode_msgs;
  return n;
}

void run_genome(const std::string& label, sim::Dataset& ds, int rounds,
                bool merge_bubbles, const std::vector<bench::ScalePoint>& axis,
                int k) {
  util::TextTable table({"ranks", "aligner_s", "gapclose_s", "rest_s",
                         "total_s", "efficiency", "aligner_eff", "wall_s",
                         "gap_offnode_msgs"});
  double base_total = 0.0;
  double base_aligner = 0.0;
  int base_ranks = 0;
  for (const auto& scale : axis) {
    pipeline::PipelineConfig cfg;
    cfg.k = k;
    cfg.scaffolding_rounds = rounds;
    cfg.merge_bubbles = merge_bubbles;
    cfg.sync_k();
    pipeline::Pipeline pipe(scale.topology(), cfg);
    const auto result = pipe.run(ds.reads, ds.libraries);

    const double aligner = result.modeled_for(pipeline::kStageAligner);
    const double gaps = result.modeled_for(pipeline::kStageGapClosing);
    const double rest = result.modeled_for(pipeline::kStageScaffoldRest);
    const double total = aligner + gaps + rest;
    if (base_ranks == 0) {
      base_ranks = scale.ranks;
      base_total = total;
      base_aligner = aligner;
    }
    const double ratio = static_cast<double>(scale.ranks) / base_ranks;
    table.add_row(
        {std::to_string(scale.ranks), util::TextTable::fmt(aligner, 3),
         util::TextTable::fmt(gaps, 3), util::TextTable::fmt(rest, 3),
         util::TextTable::fmt(total, 3),
         util::TextTable::fmt(base_total / total / ratio, 2),
         util::TextTable::fmt(base_aligner / aligner / ratio, 2),
         util::TextTable::fmt(result.wall_for(pipeline::kStageAligner) +
                                  result.wall_for(pipeline::kStageGapClosing) +
                                  result.wall_for(pipeline::kStageScaffoldRest),
                              2),
         std::to_string(gap_offnode_msgs(result))});
  }
  bench::emit("fig7_scaffolding_" + label,
              "Fig. 7 (" + label + "): scaffolding strong scaling — "
              "merAligner / gap closing / rest (modeled seconds), and gap "
              "closing's off-node messages",
              table);
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const auto human_len =
      static_cast<std::uint64_t>(opts.get_int("human-genome", 300'000));
  const auto wheat_len =
      static_cast<std::uint64_t>(opts.get_int("wheat-genome", 350'000));
  const auto axis = bench::default_scale_axis(opts);

  std::printf("Fig. 7 reproduction (human-like %llu bp, wheat-like %llu bp)\n",
              static_cast<unsigned long long>(human_len),
              static_cast<unsigned long long>(wheat_len));

  auto human = sim::make_human_like(human_len, 717);
  run_genome("human", human, /*rounds=*/1, /*merge_bubbles=*/true, axis, 31);

  auto wheat = sim::make_wheat_like(wheat_len, 719);
  // "the execution of the wheat pipeline ... requires four rounds of
  // scaffolding, resulting in even more overhead within the contig
  // ordering/orientation module."
  run_genome("wheat", wheat, /*rounds=*/4, /*merge_bubbles=*/false, axis, 31);
  return 0;
}
