#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <numeric>
#include <sstream>

#include "align/contig_store.hpp"
#include "io/fastq.hpp"
#include "io/parallel_fastq.hpp"
#include "io/wire.hpp"
#include "scaffold/depths.hpp"
#include "scaffold/insert_size.hpp"
#include "scaffold/splints_spans.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace hipmer::pipeline {

double PipelineResult::wall_total() const {
  double total = 0;
  for (const auto& s : stages) total += s.wall_seconds;
  return total;
}

double PipelineResult::modeled_total() const {
  double total = 0;
  for (const auto& s : stages) total += s.modeled_seconds;
  return total;
}

double PipelineResult::wall_for(const std::string& stage) const {
  double total = 0;
  for (const auto& s : stages)
    if (s.name == stage) total += s.wall_seconds;
  return total;
}

double PipelineResult::modeled_for(const std::string& stage) const {
  double total = 0;
  for (const auto& s : stages)
    if (s.name == stage) total += s.modeled_seconds;
  return total;
}

std::string PipelineResult::format_stages() const {
  std::ostringstream os;
  // Accumulate by name, preserving first-seen order.
  std::vector<std::string> names;
  for (const auto& s : stages)
    if (std::find(names.begin(), names.end(), s.name) == names.end())
      names.push_back(s.name);
  for (const auto& name : names) {
    os << "  " << name << ": wall " << wall_for(name) << "s, modeled "
       << modeled_for(name) << "s\n";
  }
  return os.str();
}

Pipeline::Pipeline(pgas::Topology topo, PipelineConfig config)
    : team_(topo, config.fabric), config_(config) {
  config_.sync_k();
  team_.transport().set_plan(config_.chaos);
}

void Pipeline::reset(PipelineConfig config) {
  // The fabric was chosen at team construction; a job cannot change it.
  config.fabric = config_.fabric;
  config_ = std::move(config);
  config_.sync_k();
  ckpt_.reset();
  preloaded_ufx_.clear();
  has_preloaded_ufx_ = false;
  ufx_export_ = nullptr;
  team_.reset_for_job();
  team_.transport().set_plan(config_.chaos);
}

void Pipeline::set_preloaded_ufx(
    std::vector<std::vector<kcount::UfxRecord>> shards, ckpt::AuxStats aux) {
  preloaded_ufx_ = std::move(shards);
  preloaded_aux_ = aux;
  has_preloaded_ufx_ = true;
}

PipelineResult Pipeline::execute_from_fastq(
    const std::vector<seq::ReadLibrary>& libraries, bool resume) {
  return resume ? resume_from_fastq(libraries) : run_from_fastq(libraries);
}

std::uint64_t Pipeline::config_fingerprint(
    const std::vector<seq::ReadLibrary>& libraries) const {
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  const auto put_u = [&](std::uint64_t v) { w.put_u64(v); };
  const auto put_i = [&](std::int64_t v) {
    w.put_u64(static_cast<std::uint64_t>(v));
  };
  const auto put_d = [&](double v) { w.put_pod(v); };
  const auto put_b = [&](bool v) { w.put_u32(v ? 1 : 0); };

  // Only result-affecting parameters enter the fingerprint. Batching knobs
  // (flush thresholds, chunk_kmers, lookup_chunk, read_cache_capacity,
  // expected_links) change message schedules and table sizing, not what is
  // computed; the machine model, oracle partition and checkpoint config are
  // likewise excluded, as are the team size (resume re-shards) and
  // scaffolding_rounds (a longer run reuses a shorter run's snapshots).
  w.put_u32(0x31504643);  // "CFP1"
  put_i(config_.k);
  put_u(config_.kmer.min_count);
  put_i(config_.kmer.qual_threshold);
  put_u(config_.kmer.min_ext_count);
  put_b(config_.kmer.use_heavy_hitters);
  put_u(config_.kmer.mg_capacity);
  put_u(config_.kmer.hh_min_count);
  put_b(config_.kmer.use_bloom);
  put_d(config_.kmer.candidate_fraction);
  put_u(config_.contig.min_contig_len);
  put_i(config_.aligner.seed_stride);
  put_i(config_.aligner.max_seed_hits);
  put_d(config_.aligner.min_score_fraction);
  put_i(config_.aligner.max_alignments_per_read);
  put_i(config_.aligner.sw_band);
  put_i(config_.aligner.scoring.match);
  put_i(config_.aligner.scoring.mismatch);
  put_i(config_.aligner.scoring.gap);
  put_u(config_.links.min_support);
  put_b(config_.ordering.require_mutual_best);
  put_d(config_.ordering.max_depth_factor);
  put_i(config_.gaps.walk_k_step);
  put_i(config_.gaps.max_walk_k);
  put_i(config_.gaps.anchor);
  put_d(config_.gaps.reach_sigma);
  put_i(config_.gaps.end_slack);
  put_u(config_.gaps.max_reads_per_gap);
  put_b(config_.merge_bubbles);
  put_d(config_.bubbles.max_length_skew);
  put_b(config_.serial_scaffolding);
  // Library set: names and contigging roles. Insert statistics are
  // re-estimated from alignments, paths only locate the same data.
  put_u(libraries.size());
  for (const auto& lib : libraries) {
    w.put_bytes(lib.name);
    put_b(lib.for_contigging);
  }
  return util::hash_bytes(buf.data(), buf.size());
}

void Pipeline::init_checkpointer(
    const std::vector<seq::ReadLibrary>& libraries) {
  if (!config_.checkpoint.enabled()) {
    ckpt_.reset();
    return;
  }
  ckpt_ = std::make_unique<ckpt::Checkpointer>(config_.checkpoint,
                                               config_fingerprint(libraries));
}

ckpt::ResumeState Pipeline::load_resume_state(
    std::vector<StageReport>& stages) {
  if (!ckpt_) return {};
  // Serial scaffolding concentrates the reads on rank 0 after the contig
  // stage; snapshots past that point assume the distributed layout, so cap
  // resume there.
  int max_progress = ckpt::progress_scaffolds(config_.scaffolding_rounds - 1);
  if (config_.serial_scaffolding) max_progress = ckpt::kProgressContigs;
  ckpt::ResumeState rs;
  run_reported(stages, kStageRestore, [&] {
    rs = ckpt_->load(team_, config_.scaffolding_rounds, max_progress);
  });
  return rs;
}

template <typename Body>
void Pipeline::run_reported(std::vector<StageReport>& stages,
                            const std::string& name, Body&& body) {
  // Serial-context cancel point: between phases no rank is inside the
  // team, so throwing here never shrinks a barrier or strands a peer.
  if (config_.cancel_poll && config_.cancel_poll())
    throw JobCancelled("job cancelled before stage " + name);
  // Global counters: on a multi-process fabric every process holds partial
  // mirrors; snapshot_all_global sums them so the report (and the machine
  // model) sees the same totals the threads fabric would.
  const auto before = team_.snapshot_all_global();
  util::WallTimer timer;
  body();
  StageReport report;
  report.name = name;
  report.wall_seconds = timer.seconds();
  const auto after = team_.snapshot_all_global();
  std::vector<pgas::CommStatsSnapshot> delta(after.size());
  for (std::size_t r = 0; r < after.size(); ++r) {
    delta[r] = after[r] - before[r];
    report.comm += delta[r];
  }
  report.modeled_seconds = config_.machine.phase_seconds(delta, team_.topology());
  util::log_info("stage " + name + ": wall " +
                 std::to_string(report.wall_seconds) + "s, modeled " +
                 std::to_string(report.modeled_seconds) + "s");
  stages.push_back(std::move(report));
}

template <typename Fn>
void Pipeline::run_stage(std::vector<StageReport>& stages,
                         const std::string& name, Fn&& fn) {
  run_reported(stages, name, [&] {
    team_.begin_stage(name);  // fault plans + transport blackhole rules
    team_.run([&](pgas::Rank& rank) {
      // Stage-boundary fault point: step 0 of a FaultPlan kills here,
      // before the stage does any work.
      team_.faults().on_fault_point(rank.id());
      fn(rank);
    });
  });
}

template <typename EncodeFn>
void Pipeline::snapshot_stage(std::vector<StageReport>& stages,
                              const std::string& artifact,
                              const ckpt::AuxStats& aux, EncodeFn&& encode) {
  if (!ckpt_) return;
  auto entry = ckpt_->begin_entry(artifact, team_.nranks(), aux);
  std::atomic<bool> ok{true};
  run_stage(stages, kStageCheckpoint, [&](pgas::Rank& rank) {
    const auto payload = encode(rank);
    rank.stats().add_io_write(payload.size());
    if (!ckpt_->write_shard(entry, rank.id(), payload))
      ok.store(false, std::memory_order_relaxed);
    rank.barrier();
  });
  bool all_ok = ok.load(std::memory_order_relaxed);
  if (team_.multiprocess()) {
    // Each process wrote only its own rank's shard into its copy of the
    // entry; exchange (shard, bytes, crc, failed) so every process's
    // manifest entry describes all shards and everyone agrees on success.
    const auto me = static_cast<std::size_t>(team_.my_rank());
    std::vector<std::byte> mine;
    io::wire::Writer w(mine);
    w.put_u32(static_cast<std::uint32_t>(me));
    w.put_u64(entry.shard_bytes[me]);
    w.put_u32(entry.shard_crcs[me]);
    w.put_u32(all_ok ? 0 : 1);
    for (auto& part : team_.serial_exchange(std::move(mine))) {
      io::wire::Reader rd(part);
      const auto shard = rd.get_pod_checked<std::uint32_t>("ckpt shard");
      const auto bytes = rd.get_pod_checked<std::uint64_t>("ckpt bytes");
      const auto crc = rd.get_pod_checked<std::uint32_t>("ckpt crc");
      const auto failed = rd.get_pod_checked<std::uint32_t>("ckpt failed");
      if (shard < entry.shard_count) {
        entry.shard_bytes[shard] = bytes;
        entry.shard_crcs[shard] = crc;
      }
      if (failed != 0) all_ok = false;
    }
  }
  if (all_ok) {
    // Workers mirror the entry into their in-memory manifest (keeping seq
    // numbers aligned with the primary's); only the primary writes disk.
    if (team_.is_primary())
      (void)ckpt_->commit(std::move(entry));
    else
      ckpt_->commit_local(std::move(entry));
  } else {
    util::log_warn("checkpoint: shard write failed for " + artifact +
                   "; snapshot not committed");
  }
}

Pipeline::RankReads Pipeline::make_rank_reads(std::size_t nlibs) const {
  const auto p = static_cast<std::size_t>(team_.nranks());
  return RankReads(p, std::vector<seq::PackedReads>(nlibs));
}

PipelineResult Pipeline::run(
    const std::vector<std::vector<seq::Read>>& library_reads,
    const std::vector<seq::ReadLibrary>& libraries) {
  init_checkpointer(libraries);
  // Distribute pairs round robin so mates stay together on a rank.
  const auto p = static_cast<std::size_t>(team_.nranks());
  RankReads rank_reads = make_rank_reads(libraries.size());
  for (std::size_t lib = 0; lib < library_reads.size(); ++lib) {
    const auto& reads = library_reads[lib];
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const std::size_t pair = i / 2;
      rank_reads[pair % p][lib].append(reads[i]);
    }
  }
  return assemble(std::move(rank_reads), libraries, {}, {});
}

PipelineResult Pipeline::run_from_fastq(
    const std::vector<seq::ReadLibrary>& libraries) {
  init_checkpointer(libraries);
  const auto p = static_cast<std::size_t>(team_.nranks());
  RankReads rank_reads = make_rank_reads(libraries.size());

  std::vector<StageReport> stages;

  if (config_.serial_io) {
    // Ray-like mode: rank 0 reads each file whole and scatters pairs.
    run_stage(stages, kStageIo, [&](pgas::Rank& rank) {
      for (std::size_t lib = 0; lib < libraries.size(); ++lib) {
        std::vector<std::vector<std::byte>> outgoing(p);
        if (rank.is_root()) {
          const auto reads = io::read_fastq(libraries[lib].fastq_path);
          std::uint64_t bytes = 0;
          for (std::size_t i = 0; i < reads.size(); ++i) {
            const auto& r = reads[i];
            bytes += r.name.size() + r.seq.size() + r.quals.size() + 6;
            io::wire::Writer w(outgoing[(i / 2) % p]);
            io::wire::put_read(w, r);
            rank.stats().add_serial_work();
          }
          rank.stats().add_io_read(bytes);
        }
        const auto mine = rank.alltoallv(outgoing);
        auto& dest = rank_reads[static_cast<std::size_t>(rank.id())][lib];
        io::wire::Reader rd(mine);
        while (!rd.done()) {
          auto read = io::wire::get_read(rd);
          if (rd.truncated()) break;
          dest.append(read);
        }
        rank.barrier();
      }
    });
    return assemble(std::move(rank_reads), libraries, std::move(stages), {});
  }

  std::vector<std::unique_ptr<io::ParallelFastqReader>> readers;
  readers.reserve(libraries.size());
  for (const auto& lib : libraries)
    readers.push_back(std::make_unique<io::ParallelFastqReader>(lib.fastq_path));

  run_stage(stages, kStageIo, [&](pgas::Rank& rank) {
    for (std::size_t lib = 0; lib < readers.size(); ++lib) {
      readers[lib]->read_my_records(
          rank, rank_reads[static_cast<std::size_t>(rank.id())][lib]);
      rank.barrier();
    }
  });
  return assemble(std::move(rank_reads), libraries, std::move(stages), {});
}

PipelineResult Pipeline::resume(
    const std::vector<std::vector<seq::Read>>& library_reads,
    const std::vector<seq::ReadLibrary>& libraries) {
  init_checkpointer(libraries);
  std::vector<StageReport> stages;
  auto rs = load_resume_state(stages);
  if (rs.empty()) {
    util::log_info("resume: no usable checkpoint, assembling from scratch");
    const auto p = static_cast<std::size_t>(team_.nranks());
    RankReads rank_reads = make_rank_reads(libraries.size());
    for (std::size_t lib = 0; lib < library_reads.size(); ++lib) {
      const auto& reads = library_reads[lib];
      for (std::size_t i = 0; i < reads.size(); ++i)
        rank_reads[(i / 2) % p][lib].append(reads[i]);
    }
    return assemble(std::move(rank_reads), libraries, std::move(stages), {});
  }
  return assemble({}, libraries, std::move(stages), std::move(rs));
}

PipelineResult Pipeline::resume_from_fastq(
    const std::vector<seq::ReadLibrary>& libraries) {
  init_checkpointer(libraries);
  std::vector<StageReport> stages;
  auto rs = load_resume_state(stages);
  if (rs.empty()) {
    // A retry with nothing to resume from is the poison-job shape: the
    // earlier attempt died before its first snapshot committed.
    util::log_info(config_.attempt > 0
                       ? "resume: attempt " +
                             std::to_string(config_.attempt + 1) +
                             " found no usable checkpoint, assembling "
                             "from FASTQ"
                       : "resume: no usable checkpoint, assembling from "
                         "FASTQ");
    return run_from_fastq(libraries);
  }
  if (config_.attempt > 0)
    util::log_info("resume: attempt " + std::to_string(config_.attempt + 1) +
                   " resuming from the previous attempt's checkpoint");
  return assemble({}, libraries, std::move(stages), std::move(rs));
}

PipelineResult Pipeline::assemble(RankReads rank_reads,
                                  const std::vector<seq::ReadLibrary>& libraries,
                                  std::vector<StageReport> initial_stages,
                                  ckpt::ResumeState resume_state) {
  const auto p = static_cast<std::size_t>(team_.nranks());
  PipelineResult result;
  auto stages = std::move(initial_stages);

  const int progress = resume_state.progress;
  if (!resume_state.reads.empty()) {
    // Snapshot reads come back as plain records; repack into the arenas.
    rank_reads = make_rank_reads(libraries.size());
    for (std::size_t r = 0; r < resume_state.reads.size() && r < p; ++r) {
      const auto& per_rank = resume_state.reads[r];
      for (std::size_t lib = 0; lib < per_rank.size() && lib < libraries.size();
           ++lib)
        for (const auto& read : per_rank[lib]) rank_reads[r][lib].append(read);
    }
    resume_state.reads.clear();
  }
  if (rank_reads.size() != p) rank_reads = make_rank_reads(libraries.size());
  for (auto& per_rank : rank_reads) {
    if (per_rank.size() < libraries.size())
      per_rank.resize(libraries.size());
    // Ingest is over: drop the arenas' growth slack so resident read
    // memory is what the bench reports.
    for (auto& store : per_rank) store.shrink_to_fit();
  }

  // Bookkeeping stats ride with every snapshot so a resumed run reports
  // them without redoing the stages that computed them.
  ckpt::AuxStats aux = resume_state.aux;

  if (progress < ckpt::kProgressReads) {
    snapshot_stage(stages, ckpt::kStageReads, aux, [&](pgas::Rank& rank) {
      const auto& mine = rank_reads[static_cast<std::size_t>(rank.id())];
      return ckpt::encode_packed_reads_shard(mine);
    });
  }

  // ---- Stage 1: k-mer analysis ----
  std::vector<std::vector<kcount::UfxRecord>> ufx;
  if (progress >= ckpt::kProgressUfx) {
    ufx = std::move(resume_state.ufx);
    ufx.resize(p);
  } else if (has_preloaded_ufx_) {
    // Artifact-cache hit: UFX computed by an earlier job with the same
    // fingerprint. Deal the shards round robin exactly like resume —
    // contig generation re-owns every k-mer by hash, so any producer team
    // size is valid here — and skip the k-mer analysis stage entirely
    // (which is what the per-job stage timings advertise as the hit).
    ufx.resize(p);
    for (std::size_t s = 0; s < preloaded_ufx_.size(); ++s) {
      auto& src = preloaded_ufx_[s];
      auto& dest = ufx[s % p];
      dest.insert(dest.end(), std::make_move_iterator(src.begin()),
                  std::make_move_iterator(src.end()));
    }
    preloaded_ufx_.clear();
    has_preloaded_ufx_ = false;
    aux.distinct_kmers = preloaded_aux_.distinct_kmers;
    aux.singleton_fraction = preloaded_aux_.singleton_fraction;
    aux.heavy_hitters = preloaded_aux_.heavy_hitters;
    snapshot_stage(stages, ckpt::kStageUfx, aux, [&](pgas::Rank& rank) {
      return ckpt::encode_ufx_shard(ufx[static_cast<std::size_t>(rank.id())]);
    });
  } else {
    // Scoped to this block: the count table, Bloom filters and sketches
    // are freed once the UFX is taken out, before the later stages run.
    kcount::KmerAnalysis kmer_analysis(team_, config_.kmer);
    run_stage(stages, kStageKmerAnalysis, [&](pgas::Rank& rank) {
      std::vector<seq::ReadSetView> sets;
      for (std::size_t lib = 0; lib < libraries.size(); ++lib)
        if (libraries[lib].for_contigging)
          sets.emplace_back(rank_reads[static_cast<std::size_t>(rank.id())][lib]);
      kmer_analysis.run(rank, sets);
    });
    aux.distinct_kmers = kmer_analysis.distinct_kmers();
    aux.singleton_fraction = kmer_analysis.singleton_fraction();
    aux.heavy_hitters = kmer_analysis.heavy_hitters().size();
    result.min_count = kmer_analysis.min_count();
    ufx = kmer_analysis.take_ufx();
    snapshot_stage(stages, ckpt::kStageUfx, aux, [&](pgas::Rank& rank) {
      return ckpt::encode_ufx_shard(ufx[static_cast<std::size_t>(rank.id())]);
    });
    if (ufx_export_ && !team_.multiprocess()) {
      std::vector<std::vector<std::byte>> encoded(p);
      for (std::size_t r = 0; r < p; ++r)
        encoded[r] = ckpt::encode_ufx_shard(ufx[r]);
      auto export_fn = std::move(ufx_export_);
      ufx_export_ = nullptr;
      export_fn(std::move(encoded), aux);
    }
  }
  result.distinct_kmers = aux.distinct_kmers;
  result.singleton_fraction = aux.singleton_fraction;
  result.heavy_hitters = static_cast<std::size_t>(aux.heavy_hitters);

  const auto ufx_of = [&](int r) -> const std::vector<kcount::UfxRecord>& {
    return ufx[static_cast<std::size_t>(r)];
  };

  // ---- Stages 2+3: contig generation, store + depths (§4.1) + bubbles
  // (§4.2) ----
  auto store = std::make_unique<align::ContigStore>(team_);
  if (progress < ckpt::kProgressContigs) {
    std::size_t total_ufx = 0;
    for (std::size_t r = 0; r < p; ++r) {
      if (team_.multiprocess() && !team_.is_local(static_cast<int>(r)))
        continue;
      total_ufx += ufx_of(static_cast<int>(r)).size();
    }
    total_ufx = team_.serial_sum(total_ufx);

    dbg::ContigGenerator contig_gen(team_, config_.contig, total_ufx);
    if (config_.oracle != nullptr) contig_gen.set_oracle(config_.oracle);
    run_stage(stages, kStageContigGen, [&](pgas::Rank& rank) {
      contig_gen.build_graph(rank, ufx_of(rank.id()));
      contig_gen.traverse(rank);
    });

    scaffold::DepthCalculator depth_calc(team_, config_.k, total_ufx,
                                         config_.depth_flush_threshold);
    scaffold::BubbleMerger bubble_merger(
        team_, config_.bubbles, std::max<std::size_t>(64, total_ufx / 64));
    std::vector<std::vector<dbg::Contig>> merged_contigs(p);
    run_stage(stages, kStageScaffoldRest, [&](pgas::Rank& rank) {
      store->build(rank, contig_gen.contigs(rank.id()));
      const auto depths = depth_calc.run(rank, ufx_of(rank.id()), *store);
      for (const auto& [id, depth] : depths)
        store->set_local_depth(rank, id, depth);
      rank.barrier();
      if (config_.merge_bubbles) {
        merged_contigs[static_cast<std::size_t>(rank.id())] =
            bubble_merger.run(rank, *store);
      }
    });
    if (config_.merge_bubbles) {
      auto merged_store = std::make_unique<align::ContigStore>(team_);
      run_stage(stages, kStageScaffoldRest, [&](pgas::Rank& rank) {
        merged_store->build(rank,
                            merged_contigs[static_cast<std::size_t>(rank.id())]);
      });
      store = std::move(merged_store);
    }

    // Contig statistics.
    {
      std::vector<std::uint64_t> lengths;
      std::vector<std::vector<std::uint64_t>> per_rank(p);
      team_.run([&](pgas::Rank& rank) {
        store->for_each_local(rank, [&](std::uint64_t, const dbg::Contig& c) {
          per_rank[static_cast<std::size_t>(rank.id())].push_back(c.seq.size());
        });
      });
      for (const auto& v : per_rank)
        lengths.insert(lengths.end(), v.begin(), v.end());
      if (team_.multiprocess()) {
        // Each process saw only its local shards; concatenate in rank
        // order so the stats (and num_contigs, which sizes the link table)
        // are global and identical everywhere.
        std::vector<std::byte> mine(lengths.size() * sizeof(std::uint64_t));
        if (!mine.empty())
          std::memcpy(mine.data(), lengths.data(), mine.size());
        const auto all = team_.serial_concat(std::move(mine));
        lengths.assign(all.size() / sizeof(std::uint64_t), 0);
        if (!lengths.empty())
          std::memcpy(lengths.data(), all.data(),
                      lengths.size() * sizeof(std::uint64_t));
      }
      result.num_contigs = lengths.size();
      result.contig_stats = util::compute_assembly_stats(std::move(lengths));
    }
    aux.num_contigs = result.num_contigs;
    aux.contig_stats = result.contig_stats;

    snapshot_stage(stages, ckpt::kStageContigs, aux, [&](pgas::Rank& rank) {
      std::vector<const dbg::Contig*> mine;
      store->for_each_local(rank, [&](std::uint64_t, const dbg::Contig& c) {
        mine.push_back(&c);
      });
      return ckpt::encode_contigs_shard(mine);
    });
  } else {
    result.num_contigs = aux.num_contigs;
    result.contig_stats = aux.contig_stats;
    // Round 0 scaffolds against the contig store; rebuild it from the
    // snapshot when resume lands at contigs or at round-0 alignments.
    // (Later resume points rebuild their store from scaffold records at the
    // top of the round loop instead.)
    const bool need_contig_store =
        progress == ckpt::kProgressContigs ||
        progress == ckpt::progress_alignments(0);
    if (need_contig_store) {
      run_stage(stages, kStageRestore, [&](pgas::Rank& rank) {
        static const std::vector<dbg::Contig> kNone;
        const auto r = static_cast<std::size_t>(rank.id());
        store->build(rank, r < resume_state.contigs.size()
                               ? resume_state.contigs[r]
                               : kNone);
      });
    }
  }

  // ABySS-like mode: concentrate every read on rank 0 before scaffolding;
  // the gather is charged as communication and all subsequent scaffolding
  // work lands on rank 0 (the paper's "single shared memory node").
  if (config_.serial_scaffolding) {
    run_stage(stages, kStageScaffoldRest, [&](pgas::Rank& rank) {
      std::string seq_scratch;
      std::string qual_scratch;
      for (std::size_t lib = 0; lib < libraries.size(); ++lib) {
        auto& mine = rank_reads[static_cast<std::size_t>(rank.id())][lib];
        std::vector<std::vector<std::byte>> outgoing(p);
        io::wire::Writer to_root(outgoing[0]);
        for (std::size_t i = 0; i < mine.size(); ++i) {
          to_root.put_bytes(mine.name(i));
          to_root.put_bytes(mine[i].seq(seq_scratch));
          to_root.put_bytes(mine[i].quals(qual_scratch));
        }
        if (!rank.is_root()) mine.clear();
        const auto gathered = rank.alltoallv(outgoing);
        if (rank.is_root()) {
          seq::PackedReads all;
          io::wire::Reader rd(gathered);
          while (!rd.done()) {
            auto read = io::wire::get_read(rd);
            if (rd.truncated()) break;
            all.append(read);
          }
          mine = std::move(all);
        }
        rank.barrier();
      }
    });
  }

  // ---- Scaffolding rounds ----
  std::vector<io::FastaRecord> scaffold_records =
      std::move(resume_state.scaffolds);
  int start_round = 0;
  if (ckpt::progress_is_alignments(progress))
    start_round = ckpt::progress_round(progress);
  else if (ckpt::progress_is_scaffolds(progress))
    start_round = ckpt::progress_round(progress) + 1;
  if (start_round > 0) {
    // Round-level results loaded with the scaffold snapshot; overwritten if
    // further rounds actually run.
    result.insert_estimates = resume_state.inserts;
    result.closure_stats = resume_state.closure_stats;
  }

  for (int round = start_round; round < config_.scaffolding_rounds; ++round) {
    // Feed this round: the previous round's scaffolds become the contigs
    // (round 0 uses the contig store built above).
    if (round > 0) {
      auto next_store = std::make_unique<align::ContigStore>(team_);
      run_stage(stages, kStageScaffoldRest, [&](pgas::Rank& rank) {
        std::vector<dbg::Contig> mine;
        for (std::size_t i = static_cast<std::size_t>(rank.id());
             i < scaffold_records.size(); i += p) {
          dbg::Contig contig;
          contig.id = i;
          contig.seq = scaffold_records[i].seq;
          mine.push_back(std::move(contig));
        }
        next_store->build(rank, mine);
      });
      store = std::move(next_store);
    }

    std::uint64_t contig_bases = 0;
    for (std::size_t r = 0; r < p; ++r) {
      if (team_.multiprocess() && !team_.is_local(static_cast<int>(r)))
        continue;
      contig_bases += store->local_bases(static_cast<int>(r));
    }
    contig_bases = team_.serial_sum(contig_bases);

    // merAligner (§4.3) — skipped when this round's alignments were loaded
    // from a snapshot.
    std::vector<std::vector<align::ReadAlignment>> alignments(p);
    if (resume_state.aligned_round == round) {
      alignments = std::move(resume_state.alignments);
      alignments.resize(p);
    } else {
      align::MerAligner aligner(team_, config_.aligner,
                                static_cast<std::size_t>(contig_bases));
      run_stage(stages, kStageAligner, [&](pgas::Rank& rank) {
        aligner.build_index(rank, *store);
        auto& mine = alignments[static_cast<std::size_t>(rank.id())];
        mine.clear();
        for (std::size_t lib = 0; lib < libraries.size(); ++lib) {
          auto found = aligner.align_reads(
              rank, *store, rank_reads[static_cast<std::size_t>(rank.id())][lib],
              static_cast<int>(lib));
          mine.insert(mine.end(), found.begin(), found.end());
        }
      });
      if (config_.checkpoint.granularity ==
          ckpt::CheckpointConfig::Granularity::kStage) {
        snapshot_stage(stages, ckpt::stage_alignments(round), aux,
                       [&](pgas::Rank& rank) {
                         return ckpt::encode_alignments_shard(
                             alignments[static_cast<std::size_t>(rank.id())]);
                       });
      }
    }

    // Insert sizes (§4.4), splints/spans (§4.5), links (§4.6), ordering
    // (§4.7) — the "rest of scaffolding" series of Figure 7.
    std::vector<scaffold::InsertSizeEstimate> inserts(libraries.size());
    scaffold::LinkConfig link_cfg = config_.links;
    link_cfg.expected_links =
        std::max<std::size_t>(1024, result.num_contigs * 4);
    scaffold::LinkGenerator links(team_, link_cfg);
    std::vector<scaffold::ScaffoldRecord> scaffolds;
    run_stage(stages, kStageScaffoldRest, [&](pgas::Rank& rank) {
      const auto& mine = alignments[static_cast<std::size_t>(rank.id())];
      for (std::size_t lib = 0; lib < libraries.size(); ++lib) {
        const auto est =
            scaffold::estimate_insert_size(rank, mine, static_cast<int>(lib));
        // The estimate is a replicated allreduce result; worker processes
        // keep their own copy (their rank is never root).
        if (rank.is_root() || team_.multiprocess()) inserts[lib] = est;
      }
      rank.barrier();

      auto observations = scaffold::locate_splints(rank, mine);
      const auto spans = scaffold::locate_spans(rank, mine, inserts);
      observations.insert(observations.end(), spans.begin(), spans.end());
      links.add_observations(rank, observations);
      const auto ties = links.assess(rank);

      std::vector<scaffold::ContigLen> lens;
      store->for_each_local(rank, [&](std::uint64_t id, const dbg::Contig& c) {
        lens.push_back(scaffold::ContigLen{
            id, static_cast<std::uint32_t>(c.seq.size()),
            static_cast<float>(c.avg_depth)});
      });
      auto records = scaffold::order_and_orient(rank, ties, lens,
                                                config_.ordering);
      // Replicated (built from allgathered ties/lengths on every rank).
      if (rank.is_root() || team_.multiprocess())
        scaffolds = std::move(records);
      rank.barrier();
    });

    // Gap closing (§4.8).
    const auto gaps = scaffold::enumerate_gaps(scaffolds);
    scaffold::GapCloser closer(team_, config_.gaps);
    std::vector<std::vector<scaffold::Closure>> closures(p);
    run_stage(stages, kStageGapClosing, [&](pgas::Rank& rank) {
      std::vector<seq::ReadSetView> my_reads;
      for (std::size_t lib = 0; lib < libraries.size(); ++lib)
        my_reads.emplace_back(rank_reads[static_cast<std::size_t>(rank.id())][lib]);
      closures[static_cast<std::size_t>(rank.id())] = closer.run(
          rank, gaps, *store, my_reads,
          alignments[static_cast<std::size_t>(rank.id())], inserts);
    });

    // Materialize the round's scaffold sequences.
    scaffold::ScaffoldStats closure_stats;
    run_stage(stages, kStageScaffoldRest, [&](pgas::Rank& rank) {
      auto records = scaffold::build_scaffold_sequences(
          rank, scaffolds, *store, gaps,
          closures[static_cast<std::size_t>(rank.id())],
          rank.is_root() ? &closure_stats : nullptr);
      // Replicated (allgathered record blobs); workers need the records to
      // feed the next round's store rebuild.
      if (rank.is_root() || team_.multiprocess())
        scaffold_records = std::move(records);
      rank.barrier();
    });
    result.closure_stats = closure_stats;
    if (round == 0) result.insert_estimates = inserts;

    // Snapshot the round's scaffold state (with the round-level results,
    // so a resume here reports them too).
    {
      ckpt::ScaffoldExtras extras;
      extras.closure_stats = closure_stats;
      extras.inserts = result.insert_estimates;
      snapshot_stage(stages, ckpt::stage_scaffolds(round), aux,
                     [&](pgas::Rank& rank) {
                       return ckpt::encode_scaffolds_shard(
                           scaffold_records, rank.id(), team_.nranks(),
                           rank.is_root() ? &extras : nullptr);
                     });
    }
  }

  result.scaffolds = std::move(scaffold_records);
  {
    std::vector<std::uint64_t> lengths;
    for (const auto& rec : result.scaffolds) lengths.push_back(rec.seq.size());
    result.scaffold_stats = util::compute_assembly_stats(std::move(lengths));
  }
  result.stages = std::move(stages);
  return result;
}

}  // namespace hipmer::pipeline
