// perfbench_harness — the compiled half of the end-to-end benchmark.
//
//   perfbench_harness gen --kind human|wheat --genome-bp N --seed S --out DIR
//       Simulate one sequencing run of the preset organism, write its
//       libraries as FASTQ plus the truth genome (haplotype 0) as
//       DIR/truth.fa, and print one JSON line that lists the libraries. The program under test only ever sees these
//       files.
//
//   perfbench_harness trace --reads F --insert N [--scaffold-only]...
//       [--diploid] [--rounds R] [--min-count auto|N]
//       [--fabric threads|proc --hipmer BIN --fabric-socket SOCK]
//       [--cache-dir DIR] [--journal FILE]
//       --out scaffolds.fasta --spans spans.json
//       Drive one assembly (k = 31, 4 ranks, as every workload runs it)
//       through the library exactly as `hipmer assemble`
//       does (auto min-count probe, Pipeline::execute_from_fastq, FASTA
//       write), recording a span around every public call, and write the
//       spans, the StageReports and the per-rank probe counters as JSON.
//       With --cache-dir / --journal it also times the served job's
//       ArtifactCache and JobJournal calls on this job's real artifacts.
//
//   perfbench_harness calibrate | null
//       Time a fixed host-speed kernel; run a null job (see cmd_calibrate
//       and cmd_null).
//
// Spans are kept in memory and written once at the end, so the only
// tracing cost inside the timed region is two clock reads per call.

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/fasta.hpp"
#include "io/parallel_fastq.hpp"
#include "kcount/histogram.hpp"
#include "kcount/kmer_analysis.hpp"
#include "pgas/transport.hpp"
#include "pipeline/pipeline.hpp"
#include "server/artifact_cache.hpp"
#include "server/journal.hpp"
#include "sim/datasets.hpp"
#include "sim/read_sim.hpp"
#include "util/options.hpp"

namespace {

using namespace hipmer;

constexpr int kK = 31;
constexpr int kRanks = 4;

/// In-memory span recorder. `begin`/`end` may be called from every rank's
/// thread inside team.run, hence the mutex.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int rank = -1;
    std::uint64_t bytes = 0;
  };

  int begin(const std::string& name, int parent = -1, int rank = -1) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent, rank, 0});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int id, std::uint64_t bytes = 0) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
    spans_[static_cast<std::size_t>(id)].bytes = bytes;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  using clock = std::chrono::steady_clock;
  clock::time_point origin_ = clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;
};

std::string comm_json(const pgas::CommStatsSnapshot& c) {
  std::ostringstream os;
  os << "{\"work_units\":" << c.work_units
     << ",\"local_accesses\":" << c.local_accesses
     << ",\"onnode_msgs\":" << c.onnode_msgs
     << ",\"offnode_msgs\":" << c.offnode_msgs
     << ",\"onnode_bytes\":" << c.onnode_bytes
     << ",\"offnode_bytes\":" << c.offnode_bytes
     << ",\"recv_ops\":" << c.recv_ops
     << ",\"read_cache_hits\":" << c.read_cache_hits
     << ",\"read_cache_misses\":" << c.read_cache_misses
     << ",\"transport_retries\":" << c.transport_retries
     << ",\"io_read_bytes\":" << c.io_read_bytes
     << ",\"io_write_bytes\":" << c.io_write_bytes
     << ",\"collectives\":" << c.collectives << "}";
  return os.str();
}

/// `--reads`/`--insert`/`--scaffold-only` repeat per library; named lib0,
/// lib1, ... in order, as `hipmer assemble` names them (the names enter
/// the config fingerprint and hence the output).
std::vector<seq::ReadLibrary> parse_libraries(int argc, char** argv) {
  std::vector<seq::ReadLibrary> libraries;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reads") == 0 && i + 1 < argc) {
      seq::ReadLibrary lib;
      lib.fastq_path = argv[i + 1];
      lib.name = "lib" + std::to_string(libraries.size());
      lib.mean_insert = 400.0;
      libraries.push_back(lib);
    } else if (std::strcmp(argv[i], "--insert") == 0 && i + 1 < argc &&
               !libraries.empty()) {
      libraries.back().mean_insert = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--scaffold-only") == 0 &&
               !libraries.empty()) {
      libraries.back().for_contigging = false;
    }
  }
  return libraries;
}

/// Share of bases called below Q20: the simulator gives most miscalls a
/// low quality, so this tracks a library's miscall rate.
double low_quality_share(const std::vector<seq::Read>& reads) {
  std::uint64_t low = 0;
  std::uint64_t total = 0;
  for (const auto& r : reads) {
    for (const char q : r.quals) low += seq::phred(q) < 20;
    total += r.quals.size();
  }
  return total ? static_cast<double>(low) / static_cast<double>(total) : 0.0;
}

/// The organism is the preset's, at its default seed: a fixed genome and
/// fixed library shapes. `--seed` picks the sequencing run: every library
/// is re-sampled from that genome with the preset's pair count and miscall
/// rate. Across seeds of a random genome, the work itself (repeat content,
/// heavy hitters) moves wall time by more than the bounds allow. The preset
/// does not expose its per-library coverage and miscall rate, so they are
/// restated here and checked against the preset's own reads: a preset
/// change fails the run instead of quietly simulating different reads.
int cmd_gen(const util::Options& opts) {
  const std::string kind = opts.get("kind", "human");
  const auto genome_bp =
      static_cast<std::uint64_t>(opts.get_int("genome-bp", 100'000));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const std::string out = opts.get("out", ".");
  sim::Dataset ds;
  double error_rate = 0.0;
  if (kind == "human") {
    ds = sim::make_human_like(genome_bp);
    error_rate = 0.008;
  } else if (kind == "wheat") {
    ds = sim::make_wheat_like(genome_bp);
    error_rate = 0.002;
  } else {
    std::fprintf(stderr, "gen: unknown --kind %s\n", kind.c_str());
    return 2;
  }
  for (std::size_t i = 0; i < ds.libraries.size(); ++i) {
    const auto& lib = ds.libraries[i];
    sim::LibraryConfig lc;
    lc.name = lib.name;
    lc.read_length = lib.read_length;
    lc.mean_insert = lib.mean_insert;
    lc.stddev_insert = lib.stddev_insert;
    // simulate_library draws coverage * length / (2 * read_length) pairs;
    // the +0.5 lands that floor on the preset's pair count.
    lc.coverage = (static_cast<double>(ds.reads[i].size() / 2) + 0.5) * 2.0 *
                  lib.read_length /
                  static_cast<double>(ds.genome.primary.size());
    lc.error_rate = error_rate;
    lc.seed = seed * 1000003u + i;
    auto reads = sim::simulate_library(ds.genome, lc);
    // Pair counts must agree exactly; the low-quality shares within 20%,
    // over 6 standard deviations of sampling noise at these sizes.
    const double want = low_quality_share(ds.reads[i]);
    const double got = low_quality_share(reads);
    if (reads.size() != ds.reads[i].size() ||
        std::abs(got - want) > 0.2 * want) {
      std::fprintf(stderr,
                   "gen: library %s no longer matches the %s preset: %zu reads "
                   "(preset %zu), low-quality share %.5f (preset %.5f)\n",
                   lib.name.c_str(), kind.c_str(), reads.size(),
                   ds.reads[i].size(), got, want);
      return 1;
    }
    ds.reads[i] = std::move(reads);
  }
  if (!sim::write_dataset_fastq(ds, out) ||
      !io::write_fasta(out + "/truth.fa", {{"truth", ds.genome.primary}})) {
    std::fprintf(stderr, "gen: cannot write to %s\n", out.c_str());
    return 1;
  }
  std::printf("{\"libraries\":[");
  for (std::size_t i = 0; i < ds.libraries.size(); ++i) {
    const auto& lib = ds.libraries[i];
    // The long-insert mate-pair libraries (wheat's "mp*") only scaffold.
    const bool scaffold_only = lib.name.rfind("mp", 0) == 0;
    std::printf("%s{\"path\":\"%s\",\"insert\":%.0f,\"scaffold_only\":%s}",
                i ? "," : "", lib.fastq_path.c_str(), lib.mean_insert,
                scaffold_only ? "true" : "false");
  }
  std::printf("],\"genome_bp\":%zu}\n", ds.genome.primary.size());
  return 0;
}

/// Argv for the proc fabric's worker processes: `hipmer assemble` in
/// worker mode with this run's configuration and the resolved min-count.
std::vector<std::string> worker_argv(
    const std::string& hipmer, const std::vector<seq::ReadLibrary>& libs,
    const pipeline::PipelineConfig& cfg, const std::string& sock) {
  std::vector<std::string> argv{hipmer, "assemble"};
  for (const auto& lib : libs) {
    char insert[32];
    std::snprintf(insert, sizeof insert, "%g", lib.mean_insert);
    argv.insert(argv.end(), {"--reads", lib.fastq_path, "--insert", insert});
    if (!lib.for_contigging) argv.emplace_back("--scaffold-only");
  }
  argv.insert(argv.end(),
              {"--k", std::to_string(cfg.k), "--ranks", std::to_string(kRanks),
               "--rounds", std::to_string(cfg.scaffolding_rounds),
               "--fabric", "proc", "--fabric-socket", sock, "--min-count",
               std::to_string(cfg.kmer.min_count)});
  if (cfg.merge_bubbles) argv.emplace_back("--diploid");
  return argv;
}

int cmd_trace(int argc, char** argv, const util::Options& opts) {
  const auto libraries = parse_libraries(argc, argv);
  const std::string out = opts.get("out", "");
  const std::string spans_path = opts.get("spans", "");
  if (libraries.empty() || out.empty() || spans_path.empty()) {
    std::fprintf(stderr, "trace: --reads, --out and --spans required\n");
    return 2;
  }
  const std::string min_count = opts.get("min-count", "auto");
  const std::string fabric = opts.get("fabric", "threads");

  pipeline::PipelineConfig cfg;
  cfg.k = kK;
  cfg.scaffolding_rounds = static_cast<int>(opts.get_int("rounds", 1));
  cfg.merge_bubbles = opts.get_bool("diploid", false);
  if (min_count != "auto")
    cfg.kmer.min_count = static_cast<std::uint32_t>(
        std::strtoul(min_count.c_str(), nullptr, 10));
  cfg.sync_k();

  Tracer tr;
  std::vector<pgas::CommStatsSnapshot> probe_ranks;
  std::size_t peak_table_entries = 0;
  std::size_t bloom_bytes = 0;
  std::vector<pipeline::StageReport> stages;
  std::vector<std::vector<std::byte>> ufx_shards;
  ckpt::AuxStats ufx_aux;
  std::size_t scaffolds = 0;

  const int root = tr.begin("assemble");
  if (min_count == "auto") {
    // The CLI's probe: a full k-mer analysis on a threads team of
    // min(ranks, 8), only to pick the histogram valley.
    const int probe = tr.begin("cli.probe", root);
    pgas::ThreadTeam probe_team(pgas::Topology{std::min(kRanks, 8), 4});
    kcount::KmerAnalysis analysis(probe_team, cfg.kmer);
    std::vector<std::unique_ptr<io::ParallelFastqReader>> readers;
    for (const auto& lib : libraries)
      if (lib.for_contigging)
        readers.push_back(
            std::make_unique<io::ParallelFastqReader>(lib.fastq_path));
    probe_team.run([&](pgas::Rank& rank) {
      const int read_span = tr.begin("io.probe_read", probe, rank.id());
      std::vector<std::vector<seq::Read>> mine;
      std::vector<const std::vector<seq::Read>*> sets;
      for (auto& reader : readers) {
        mine.push_back(reader->read_my_records(rank));
        rank.barrier();
      }
      for (const auto& m : mine) sets.push_back(&m);
      tr.end(read_span);
      const int run_span = tr.begin("kcount.run", probe, rank.id());
      analysis.run(rank, sets);
      tr.end(run_span);
    });
    cfg.kmer.min_count = kcount::choose_min_count(analysis.histogram());
    probe_ranks = probe_team.snapshot_all();
    peak_table_entries = analysis.peak_table_entries();
    bloom_bytes = analysis.bloom_bytes();
    tr.end(probe);
  }
  {
    const int exec = tr.begin("pipeline.execute", root);
    if (fabric == "proc") {
      cfg.fabric.mode = pgas::FabricConfig::Mode::kProcCoordinator;
      cfg.fabric.socket_path = opts.get("fabric-socket", "perfbench.sock");
      cfg.fabric.worker_argv =
          worker_argv(opts.get("hipmer", "hipmer"), libraries, cfg,
                      cfg.fabric.socket_path);
    }
    pipeline::Pipeline pipe(pgas::Topology{kRanks, 4}, cfg);
    if (opts.has("cache-dir"))
      pipe.set_ufx_export([&](std::vector<std::vector<std::byte>> shards,
                              const ckpt::AuxStats& aux) {
        ufx_shards = std::move(shards);
        ufx_aux = aux;
      });
    auto result = pipe.execute_from_fastq(libraries, false);
    tr.end(exec);
    const int write = tr.begin("io.write_fasta", root);
    if (!io::write_fasta(out, result.scaffolds)) {
      std::fprintf(stderr, "trace: cannot write %s\n", out.c_str());
      return 1;
    }
    tr.end(write);
    stages = std::move(result.stages);
    scaffolds = result.scaffolds.size();
  }
  tr.end(root);

  // Envelope framing + CRC at the k-mer stage's mean batch size: the
  // per-message cost every fabric pays before delivery.
  for (const auto& s : stages) {
    if (s.name != pipeline::kStageKmerAnalysis || s.comm.total_msgs() == 0)
      continue;
    pgas::Envelope env;
    env.payload.resize(std::max<std::uint64_t>(
        1, (s.comm.onnode_bytes + s.comm.offnode_bytes) / s.comm.total_msgs()));
    for (std::size_t i = 0; i < env.payload.size(); ++i)
      env.payload[i] = static_cast<std::byte>(i * 131u);
    const int frame = tr.begin("pgas.frame_decode", -1, -1);
    std::uint64_t bytes = 0;
    while (bytes < (32u << 20)) {
      const auto wire = pgas::frame_envelope(env);
      if (pgas::decode_envelope(wire.data(), wire.size()).seq != env.seq) {
        std::fprintf(stderr, "trace: envelope round trip failed\n");
        return 1;
      }
      bytes += env.payload.size();
      ++env.seq;
    }
    tr.end(frame, bytes);
  }

  if (opts.has("cache-dir") && !ufx_shards.empty()) {
    server::ArtifactCache cache(opts.get("cache-dir", ""));
    std::uint64_t shard_bytes = 0;
    for (const auto& s : ufx_shards) shard_bytes += s.size();
    for (std::uint64_t key = 1; key <= 5; ++key) {
      const int store = tr.begin("ckpt.store_ufx", -1, -1);
      const bool stored = cache.store_ufx(key, ufx_shards, ufx_aux);
      tr.end(store, shard_bytes);
      const int lookup = tr.begin("ckpt.lookup_ufx", -1, -1);
      const bool hit = cache.lookup_ufx(key).has_value();
      tr.end(lookup, shard_bytes);
      if (!stored || !hit) {
        std::fprintf(stderr, "trace: artifact cache round trip failed\n");
        return 1;
      }
    }
  }

  if (opts.has("journal")) {
    server::JobJournal journal(opts.get("journal", ""));
    if (!journal.open_and_replay()) {
      std::fprintf(stderr, "trace: cannot open journal\n");
      return 1;
    }
    server::JournalEvent event;
    event.type = server::JournalEventType::kSubmit;
    event.spec.libraries = libraries;
    event.spec.output_path = out;
    for (int i = 1; i <= 20; ++i) {
      event.job_id = static_cast<std::uint64_t>(i);
      const int append = tr.begin("server.journal_append", -1, -1);
      if (!journal.append(event)) {
        std::fprintf(stderr, "trace: journal append failed\n");
        return 1;
      }
      tr.end(append);
    }
  }

  std::ofstream os(spans_path);
  os.precision(9);
  os << "{\"min_count\":" << cfg.kmer.min_count
     << ",\"scaffolds\":" << scaffolds
     << ",\"peak_table_entries\":" << peak_table_entries
     << ",\"bloom_bytes\":" << bloom_bytes << ",\n\"spans\":[";
  // One traced process runs one job, so every span carries job 0.
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start\":" << s.start << ",\"end\":" << s.end
       << ",\"parent\":" << s.parent << ",\"rank\":" << s.rank
       << ",\"job\":0,\"bytes\":" << s.bytes << "}";
  }
  os << "],\n\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& s = stages[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"wall\":" << s.wall_seconds
       << ",\"modeled\":" << s.modeled_seconds
       << ",\"comm\":" << comm_json(s.comm) << "}";
  }
  os << "],\n\"probe_ranks\":[";
  for (std::size_t i = 0; i < probe_ranks.size(); ++i)
    os << (i ? "," : "") << comm_json(probe_ranks[i]);
  os << "]}\n";
  return os.good() ? 0 : 1;
}

/// A fixed CPU and memory kernel that shares no code with the program
/// under test: 4 threads each count 2^22 pseudo-random keys in a 1 MB
/// table. Its time tracks the host's speed, which on a shared host drifts
/// by 1.7x within minutes; run.py scales its timings by it. Prints the
/// fastest of 8 rounds in seconds: a transient burst on the host (such as
/// the previous job's teardown) slows single rounds, not the fastest one.
int cmd_calibrate() {
  double best = 0.0;
  std::uint64_t checksum = 0;
  for (int round = 0; round < 8; ++round) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> sums(4, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < sums.size(); ++t)
      threads.emplace_back([&sums, t] {
        std::vector<std::uint32_t> counts(1u << 18);
        std::uint64_t x = 0x9E3779B97F4A7C15ull * (t + 1);
        for (int i = 0; i < (1 << 22); ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          ++counts[x & (counts.size() - 1)];
        }
        for (std::size_t i = 0; i < counts.size(); ++i)
          sums[t] += i * counts[i];
      });
    for (auto& th : threads) th.join();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (round == 0 || secs < best) best = secs;
    for (const auto s : sums) checksum ^= s;
  }
  std::printf("%.9f %llu\n", best, static_cast<unsigned long long>(checksum));
  return 0;
}

/// A null job for set-up time: twice (probe team, pipeline team) start 4
/// threads that pass 50 barriers together, then exit. Launched like the
/// assembler, it pays the same process start and cross-thread wake-ups,
/// which a busy host delays by up to 3x; run.py scales set-up time by it.
int cmd_null() {
  for (int team = 0; team < 2; ++team) {
    std::barrier sync(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&sync] {
        for (int i = 0; i < 50; ++i) sync.arrive_and_wait();
      });
    for (auto& th : threads) th.join();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_harness gen|trace|calibrate|null [options]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const util::Options opts(argc - 1, argv + 1);
  try {
    if (cmd == "gen") return cmd_gen(opts);
    if (cmd == "trace") return cmd_trace(argc - 1, argv + 1, opts);
    if (cmd == "calibrate") return cmd_calibrate();
    if (cmd == "null") return cmd_null();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_harness: unknown command %s\n", cmd.c_str());
  return 2;
}
