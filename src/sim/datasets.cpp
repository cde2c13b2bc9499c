#include "sim/datasets.hpp"

#include "io/fastq.hpp"
#include "sim/read_sim.hpp"

namespace hipmer::sim {

namespace {

void add_library(Dataset& ds, const LibraryConfig& lc,
                 bool for_contigging = true) {
  seq::ReadLibrary lib;
  lib.name = lc.name;
  lib.for_contigging = for_contigging;
  lib.mean_insert = lc.mean_insert;
  lib.stddev_insert = lc.stddev_insert;
  lib.read_length = lc.read_length;
  ds.libraries.push_back(lib);
  ds.reads.push_back(simulate_library(ds.genome, lc));
}

}  // namespace

Dataset make_human_like(std::uint64_t genome_length, std::uint64_t seed,
                        double coverage) {
  Dataset ds;
  ds.name = "human_like";
  GenomeConfig gc;
  gc.length = genome_length;
  gc.repeat_fraction = 0.03;
  gc.repeat_families = 4;
  gc.repeat_unit_length = 300;
  gc.repeat_divergence = 0.02;  // human repeats are diverged copies
  gc.heterozygosity = 0.001;    // 0.1% — low end of the paper's range
  gc.seed = seed;
  ds.genome = simulate_genome(gc);

  LibraryConfig lc;
  lc.name = "pe395";
  lc.read_length = 101;
  lc.mean_insert = 395.0;
  lc.stddev_insert = 30.0;
  lc.coverage = coverage;
  // Illumina-realistic ~0.8%: error k-mers then dominate the distinct
  // k-mer spectrum ("95% of k-mers have a single count" for human, §5.4),
  // which is what makes the Bloom filter worth 85% of the table memory.
  lc.error_rate = 0.008;
  lc.seed = seed + 1;
  add_library(ds, lc);
  return ds;
}

Dataset make_wheat_like(std::uint64_t genome_length, std::uint64_t seed,
                        double coverage) {
  Dataset ds;
  ds.name = "wheat_like";
  GenomeConfig gc;
  gc.length = genome_length;
  gc.repeat_fraction = 0.35;
  gc.repeat_families = 12;
  gc.repeat_unit_length = 400;
  gc.repeat_divergence = 0.0;  // exact copies -> maximal heavy-hitter skew
  // A single ultra-frequent short unit: the few k-mers with enormous counts
  // that create the hot-owner imbalance Figure 6 measures.
  gc.hyper_repeat_fraction = 0.08;
  gc.hyper_repeat_unit_length = 8;
  gc.heterozygosity = 0.0;  // 'Synthetic W7984' is homozygous
  gc.seed = seed;
  ds.genome = simulate_genome(gc);

  // Three short-insert libraries (paper: five, 240–740bp; we keep the span
  // with three) sharing the coverage budget.
  const double short_cov = coverage * 0.8 / 3.0;
  int lib_seed = 1;
  for (double insert : {240.0, 400.0, 740.0}) {
    LibraryConfig lc;
    lc.name = "pe" + std::to_string(static_cast<int>(insert));
    lc.read_length = 150;
    lc.mean_insert = insert;
    lc.stddev_insert = insert * 0.08;
    lc.coverage = short_cov;
    lc.error_rate = 0.002;
    lc.seed = seed + static_cast<std::uint64_t>(lib_seed++);
    add_library(ds, lc);
  }
  // Two long-insert libraries for scaffolding only (1kbp and 4.2kbp): like
  // the paper's mate-pair libraries they join contigs, they do not build
  // them.
  for (double insert : {1000.0, 4200.0}) {
    LibraryConfig lc;
    lc.name = "mp" + std::to_string(static_cast<int>(insert));
    lc.read_length = 150;
    lc.mean_insert = insert;
    lc.stddev_insert = insert * 0.1;
    lc.coverage = coverage * 0.1;
    lc.error_rate = 0.002;
    lc.seed = seed + static_cast<std::uint64_t>(lib_seed++);
    add_library(ds, lc, /*for_contigging=*/false);
  }
  return ds;
}

bool write_dataset_fastq(Dataset& dataset, const std::string& dir) {
  for (std::size_t i = 0; i < dataset.libraries.size(); ++i) {
    auto& lib = dataset.libraries[i];
    lib.fastq_path = dir + "/" + dataset.name + "_" + lib.name + ".fastq";
    if (!io::write_fastq(lib.fastq_path, dataset.reads[i])) return false;
  }
  return true;
}

}  // namespace hipmer::sim
