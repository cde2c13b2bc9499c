#include "baseline/baselines.hpp"

#include "pipeline/pipeline.hpp"

namespace hipmer::baseline {

namespace {

BaselineResult from_pipeline(const std::string& name,
                             const pipeline::PipelineResult& result) {
  BaselineResult out;
  out.assembler = name;
  for (const auto& stage : result.stages)
    out.stages.push_back(BaselineStage{stage.name, stage.wall_seconds,
                                       stage.modeled_seconds});
  out.num_contigs = result.num_contigs;
  out.contig_bases = result.contig_stats.total_length;
  out.num_scaffolds = result.scaffolds.size();
  return out;
}

/// HipMer's §3 optimizations switched off: no Bloom filter, no heavy
/// hitters, one message per hash-table element.
void deoptimize(pipeline::PipelineConfig& config) {
  config.kmer.use_bloom = false;
  config.kmer.use_heavy_hitters = false;
  config.kmer.chunk_kmers = 64;  // tiny exchange batches ~ fine-grained comm
  config.depth_flush_threshold = 1;
  config.contig.flush_threshold = 1;
  config.links.flush_threshold = 1;
  config.aligner.flush_threshold = 1;
  config.merge_bubbles = false;
}

}  // namespace

BaselineResult run_raylike(const pgas::Topology& topo,
                           const BaselineConfig& config,
                           const std::vector<seq::ReadLibrary>& libraries) {
  pipeline::PipelineConfig pc;
  pc.k = config.k;
  pc.machine = config.machine;
  deoptimize(pc);
  pc.serial_io = true;  // "One drawback of Ray is the lack of parallel I/O"
  pc.sync_k();
  pipeline::Pipeline pipe(topo, pc);
  return from_pipeline("raylike", pipe.run_from_fastq(libraries));
}

BaselineResult run_abysslike(const pgas::Topology& topo,
                             const BaselineConfig& config,
                             const std::vector<seq::ReadLibrary>& libraries) {
  pipeline::PipelineConfig pc;
  pc.k = config.k;
  pc.machine = config.machine;
  deoptimize(pc);
  // ABySS 1.3.6 read FASTQ serially as well, and its scaffolding is not
  // distributed-memory parallel.
  pc.serial_io = true;
  pc.serial_scaffolding = true;
  pc.sync_k();
  pipeline::Pipeline pipe(topo, pc);
  return from_pipeline("abysslike", pipe.run_from_fastq(libraries));
}

BaselineResult run_serial_meraculous(
    const BaselineConfig& config,
    const std::vector<std::vector<seq::Read>>& library_reads,
    const std::vector<seq::ReadLibrary>& libraries) {
  pipeline::PipelineConfig pc;
  pc.k = config.k;
  pc.machine = config.machine;
  // The original Meraculous has the algorithms but no distributed
  // parallelism: everything on one rank.
  pc.sync_k();
  pipeline::Pipeline pipe(pgas::Topology{1, 1}, pc);
  return from_pipeline("meraculous_serial", pipe.run(library_reads, libraries));
}

}  // namespace hipmer::baseline
