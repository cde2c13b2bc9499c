#include "server/job_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <thread>

#include "ckpt/artifacts.hpp"
#include "io/fasta.hpp"
#include "io/fs_faults.hpp"
#include "kcount/kmer_analysis.hpp"
#include "pgas/chaos.hpp"
#include "pgas/fault.hpp"
#include "io/wire.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hipmer::server {

namespace fs = std::filesystem;

namespace {

/// The shared-cache key: the pipeline's config fingerprint folded with
/// the identity of the input files (path + size + mtime). The fingerprint
/// alone treats paths as locators — two tenants' different datasets under
/// the same config must not collide — and size alone misses a file
/// rewritten in place, which must not hit on the old data's artifacts.
std::uint64_t artifact_key(pipeline::Pipeline& pipe, const JobSpec& spec) {
  std::vector<std::byte> buf;
  io::wire::Writer w(buf);
  w.put_u64(pipe.config_fingerprint(spec.libraries));
  for (const auto& lib : spec.libraries) {
    w.put_bytes(lib.fastq_path);
    std::error_code ec;
    const auto size = fs::file_size(lib.fastq_path, ec);
    w.put_u64(ec ? 0 : static_cast<std::uint64_t>(size));
    const auto mtime = fs::last_write_time(lib.fastq_path, ec);
    w.put_u64(ec ? 0
                 : static_cast<std::uint64_t>(
                       mtime.time_since_epoch().count()));
  }
  return util::hash_bytes(buf.data(), buf.size());
}

std::string format_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::uint64_t now_wall_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// True once the job's wall-clock budget is spent.
bool deadline_expired(const JobSpec& spec) {
  return spec.deadline_ms > 0 &&
         now_wall_ms() >= spec.submit_wall_ms + spec.deadline_ms;
}

}  // namespace

std::uint64_t JobServer::retry_backoff_ms(std::uint32_t base_ms,
                                          std::uint32_t attempt,
                                          std::uint64_t job_id) {
  // Exponential with a 64x cap, plus deterministic +-25% jitter from the
  // same hash family the chaos plan uses — reproducible, no RNG state.
  const std::uint32_t shift = attempt < 6 ? attempt : 6;
  const std::uint64_t base = static_cast<std::uint64_t>(base_ms) << shift;
  const std::uint64_t h = util::mix64(
      util::hash_combine(util::hash_combine(0x626B6F66ULL, job_id), attempt));
  const std::uint64_t jitter = base > 0 ? (h % (base / 2 + 1)) : 0;
  return base - base / 4 + jitter;
}

bool JobServer::parse_submit(const Command& cmd, JobSpec* spec,
                             std::string* error) {
  const std::string reads = cmd.get("reads");
  if (reads.empty()) {
    *error = "missing-reads";
    return false;
  }
  // reads=path[:insert[:s]],...  (":s" marks a scaffold-only library).
  // Library names are assigned lib0, lib1, ... — the same scheme the CLI
  // uses, so fingerprints agree between served and one-shot runs.
  std::istringstream is(reads);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    seq::ReadLibrary lib;
    lib.name = "lib" + std::to_string(spec->libraries.size());
    lib.mean_insert = 400.0;
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      lib.fastq_path = item;
    } else {
      lib.fastq_path = item.substr(0, colon);
      std::string rest = item.substr(colon + 1);
      const auto colon2 = rest.find(':');
      if (colon2 != std::string::npos) {
        if (rest.substr(colon2 + 1) == "s") lib.for_contigging = false;
        rest = rest.substr(0, colon2);
      }
      if (!rest.empty()) lib.mean_insert = std::atof(rest.c_str());
    }
    std::error_code ec;
    const auto size = fs::file_size(lib.fastq_path, ec);
    if (ec) {
      *error = "input-missing";
      return false;
    }
    spec->estimated_bytes += static_cast<std::uint64_t>(size);
    spec->libraries.push_back(std::move(lib));
  }
  if (spec->libraries.empty()) {
    *error = "missing-reads";
    return false;
  }

  spec->output_path = cmd.get("out");
  if (spec->output_path.empty()) {
    *error = "missing-out";
    return false;
  }
  spec->tenant = cmd.get("tenant", "default");
  if (spec->tenant.find('/') != std::string::npos ||
      spec->tenant.find("..") != std::string::npos) {
    *error = "bad-tenant";
    return false;
  }
  spec->priority = std::atoi(cmd.get("priority", "0").c_str());
  spec->k = std::atoi(cmd.get("k", "31").c_str());
  if (cmd.has("min_count")) {
    // An explicit cutoff >= 1; absent means the served default. "auto",
    // "0" or garbage would otherwise silently fall back to that default.
    const auto min_count = kcount::parse_min_count(cmd.get("min_count"));
    if (!min_count || *min_count == 0) {
      *error = "bad-min-count";
      return false;
    }
    spec->min_count = *min_count;
  }
  spec->rounds = std::atoi(cmd.get("rounds", "1").c_str());
  spec->diploid = cmd.get("diploid", "0") == "1";
  spec->resume = cmd.get("resume", "0") == "1";
  spec->use_cache = cmd.get("cache", "1") != "0";
  spec->kill_spec = cmd.get("kill");
  if (!spec->kill_spec.empty()) {
    try {
      // A hard kill SIGKILLs the hosting process at the fault point. On
      // the server's in-process team that is the whole multi-tenant
      // server, not the submitting job — containment demands rejection.
      if (pgas::FaultPlan::parse(spec->kill_spec).hard) {
        *error = "bad-kill";
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad-kill";
      return false;
    }
  }
  spec->chaos_spec = cmd.get("chaos");
  spec->chaos_seed = static_cast<std::uint64_t>(
      std::strtoull(cmd.get("chaos_seed", "1").c_str(), nullptr, 10));
  spec->max_attempts = static_cast<std::uint32_t>(
      std::strtoul(cmd.get("attempts", "0").c_str(), nullptr, 10));
  spec->deadline_ms = static_cast<std::uint64_t>(
      std::strtoull(cmd.get("deadline", "0").c_str(), nullptr, 10));
  if (spec->k < 5 || spec->rounds < 1) {
    *error = "bad-config";
    return false;
  }
  return true;
}

JobServer::JobServer(ServerConfig config)
    : config_(std::move(config)), queue_(config_.admission) {
  if (config_.enable_cache)
    cache_ = std::make_unique<ArtifactCache>(fs::path(config_.state_dir) /
                                             "cache");
}

JobServer::~JobServer() {
  queue_.shutdown();
  stop_.store(true, std::memory_order_relaxed);
  if (io_thread_.joinable()) io_thread_.join();
}

std::string JobServer::tenant_dir(const std::string& tenant) const {
  return (fs::path(config_.state_dir) / "tenants" / tenant).string();
}

void JobServer::journal_event(const JournalEvent& event) {
  if (!journal_) return;
  std::string error_name;
  if (!journal_->append(event, &error_name))
    // Durability degrades by name; availability does not: the server keeps
    // running and the operator sees exactly which write was lost.
    util::log_warn("server: journal append (" +
                   std::string(journal_event_name(event.type)) + " job " +
                   std::to_string(event.job_id) + ") failed: " + error_name);
}

void JobServer::recover_from_journal() {
  auto replay = journal_->open_and_replay();
  if (!replay) {
    util::log_warn("server: journal unusable at " + journal_->path() +
                   "; running without durability");
    journal_.reset();
    return;
  }
  const auto jobs = reconstruct_jobs(replay->events);
  std::size_t backlog = 0;
  std::size_t resumed = 0;
  std::vector<JournalEvent> live;
  for (const auto& [id, job] : jobs) {
    JobSpec spec = job.spec;
    JobState state = job.state;
    if (state == JobState::kRunning) {
      // The interrupted job: re-admit queued, resume from its tenant
      // checkpoint. Its consumed attempt is not re-charged — the server
      // died, not the job.
      spec.resume = true;
      state = JobState::kQueued;
      ++resumed;
    }
    if (state == JobState::kQueued) ++backlog;
    if (queue_.restore(spec, state, job.attempt, job.outcome,
                       job.fault_log) == nullptr)
      continue;
    // Compacted journal: one SUBMIT per live/retained job (attempt and
    // fault log folded in), plus the terminal record when there is one.
    JournalEvent submit;
    submit.type = JournalEventType::kSubmit;
    submit.job_id = id;
    submit.attempt = job.attempt;
    submit.error = job.fault_log;
    submit.spec = spec;
    live.push_back(std::move(submit));
    if (job_state_terminal(state)) {
      JournalEvent fin;
      fin.type = JournalEventType::kFinish;
      fin.job_id = id;
      fin.final_state = state;
      fin.scaffolds = job.outcome.scaffolds;
      fin.scaffold_bases = job.outcome.scaffold_bases;
      fin.cache_hit = job.outcome.cache_hit;
      fin.error = job.outcome.error;
      live.push_back(std::move(fin));
    }
  }
  if (!replay->events.empty() || replay->tail_truncated)
    journal_->compact(live);
  if (backlog > 0 || replay->tail_truncated)
    util::log_info("server: journal replay recovered " +
                   std::to_string(backlog) + " queued job(s), " +
                   std::to_string(resumed) + " interrupted run(s) resumed" +
                   (replay->tail_truncated ? " (torn tail truncated)" : ""));
}

int JobServer::serve() {
  std::error_code ec;
  fs::create_directories(fs::path(config_.state_dir) / "tenants", ec);
  if (ec) {
    util::log_warn("server: cannot create " + config_.state_dir + ": " +
                   ec.message());
    return 1;
  }

  if (!config_.fs_fault_spec.empty()) {
    try {
      io::FsFaults::instance().arm(io::FsFaultPlan::parse(
          config_.fs_fault_seed, config_.fs_fault_spec));
      util::log_info("server: fs-fault drill armed: " +
                     config_.fs_fault_spec);
    } catch (const std::exception& e) {
      util::log_warn(std::string("server: bad --fs-faults spec: ") +
                     e.what());
      return 1;
    }
  }

  // Reclaim temp-file debris a previous life left between write and
  // rename — under tenants, the cache, and the journal alike.
  io::sweep_tmp_files(config_.state_dir);

  if (config_.enable_journal) {
    std::string journal_path = config_.journal_path;
    if (journal_path.empty())
      journal_path = (fs::path(config_.state_dir) / "journal.bin").string();
    journal_ = std::make_unique<JobJournal>(journal_path);
    recover_from_journal();
  }

  // One persistent team for the server's whole life; jobs re-arm it via
  // Pipeline::reset.
  pipeline::PipelineConfig boot;
  boot.sync_k();
  pipe_ = std::make_unique<pipeline::Pipeline>(
      pgas::Topology{config_.ranks, config_.cores}, boot);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.listen_path.size() >= sizeof addr.sun_path) {
    util::log_warn("server: socket path too long: " + config_.listen_path);
    return 1;
  }
  std::strncpy(addr.sun_path, config_.listen_path.c_str(),
               sizeof addr.sun_path - 1);
  ::unlink(config_.listen_path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0 ||
      ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    util::log_warn("server: cannot listen on " + config_.listen_path + ": " +
                   std::strerror(errno));
    if (listen_fd >= 0) ::close(listen_fd);
    return 1;
  }
  util::log_info("server: listening on " + config_.listen_path + " with " +
                 std::to_string(config_.ranks) + " ranks");

  io_thread_ = std::thread([this, listen_fd] { io_loop(listen_fd); });

  // Executor: one job at a time over the shared team.
  while (JobRecord* job = queue_.pop_next()) execute(job);

  stop_.store(true, std::memory_order_relaxed);
  io_thread_.join();
  ::close(listen_fd);
  ::unlink(config_.listen_path.c_str());
  util::log_info("server: shut down cleanly");
  return 0;
}

void JobServer::io_loop(int listen_fd) {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    // One thread per control connection: an idle or slow client must not
    // wedge STATUS/CANCEL/SHUTDOWN for every other tenant. The queue is
    // mutex-protected for concurrent handlers, and the reader's idle
    // timeout plus the stop flag bound each thread's life.
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    std::thread([this, fd] {
      handle_connection(fd);
      ::close(fd);
      active_connections_.fetch_sub(1, std::memory_order_release);
    }).detach();
  }
  // Handlers borrow `this`; do not return (and let the server die) until
  // the last one is gone. Each exits within one poll slice of stop_.
  while (active_connections_.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

void JobServer::handle_connection(int fd) {
  LineReader reader(fd, config_.client_idle_timeout_ms, &stop_);
  while (auto raw = reader.next()) {
    const auto text = unframe_line(*raw);
    if (!text) {
      send_line(fd, "ERR bad-frame");
      send_line(fd, kEnd);
      continue;
    }
    const Command cmd = parse_command(*text);

    if (cmd.verb == "PING") {
      send_line(fd, "OK pong");
    } else if (cmd.verb == "SUBMIT") {
      JobSpec spec;
      std::string error;
      if (!parse_submit(cmd, &spec, &error)) {
        send_line(fd, "ERR " + error);
      } else {
        spec.submit_wall_ms = now_wall_ms();
        if (spec.max_attempts == 0) spec.max_attempts = config_.max_attempts;
        if (spec.max_attempts == 0) spec.max_attempts = 1;
        // Write-ahead: the SUBMIT record is fsync'd (inside the queue
        // lock, before the job is visible) or the admission is refused —
        // an acknowledged job is never lost to a crash.
        const auto precommit = [this](const JobSpec& admitted) {
          if (!journal_) return true;
          JournalEvent event;
          event.type = JournalEventType::kSubmit;
          event.job_id = admitted.id;
          event.spec = admitted;
          std::string journal_error;
          if (journal_->append(event, &journal_error)) return true;
          util::log_warn("server: refusing job: " + journal_error);
          return false;
        };
        const std::uint64_t id =
            queue_.submit(std::move(spec), &error, precommit);
        if (id == 0)
          send_line(fd, "ERR " + error);
        else
          send_line(fd, "OK id=" + std::to_string(id));
      }
    } else if (cmd.verb == "STATUS" || cmd.verb == "RESULT") {
      const std::uint64_t id = static_cast<std::uint64_t>(
          std::strtoull(cmd.get("id", "0").c_str(), nullptr, 10));
      const auto snap = queue_.status(id);
      if (!snap) {
        send_line(fd, "ERR unknown-job");
      } else {
        std::string line = "JOB id=" + std::to_string(snap->id) + " state=" +
                           job_state_name(snap->state);
        if (snap->queue_position >= 0)
          line += " pos=" + std::to_string(snap->queue_position);
        if (snap->attempt > 0)
          line += " attempts=" + std::to_string(snap->attempt);
        if (job_state_terminal(snap->state)) {
          line += " scaffolds=" + std::to_string(snap->outcome.scaffolds) +
                  " bases=" + std::to_string(snap->outcome.scaffold_bases) +
                  " cache_hit=" + (snap->outcome.cache_hit ? "1" : "0");
          if (!snap->output_path.empty()) line += " out=" + snap->output_path;
          if (!snap->outcome.error.empty()) {
            std::string err = snap->outcome.error;
            // One-line protocol: the reason must not smuggle in framing.
            for (auto& c : err)
              if (c == ' ' || c == '\n') c = '_';
            line += " error=" + err;
          }
        }
        send_line(fd, line);
        if (cmd.verb == "RESULT" && job_state_terminal(snap->state)) {
          for (const auto& stage : snap->outcome.stages)
            send_line(fd, "STAGE " + stage.name + " " +
                              format_double(stage.wall_seconds) + " " +
                              format_double(stage.modeled_seconds));
        }
      }
    } else if (cmd.verb == "CANCEL") {
      const std::uint64_t id = static_cast<std::uint64_t>(
          std::strtoull(cmd.get("id", "0").c_str(), nullptr, 10));
      const bool cancelled = queue_.cancel(id);
      if (cancelled) {
        JournalEvent event;
        event.type = JournalEventType::kCancel;
        event.job_id = id;
        journal_event(event);
      }
      send_line(fd, cancelled ? "OK cancelled" : "ERR unknown-job");
    } else if (cmd.verb == "STATS") {
      const auto c = queue_.counters();
      std::string line =
          "STATS queued=" + std::to_string(c.queued) +
          " running=" + std::to_string(c.running) +
          " completed=" + std::to_string(c.completed) +
          " failed=" + std::to_string(c.failed) +
          " cancelled=" + std::to_string(c.cancelled) +
          " quarantined=" + std::to_string(c.quarantined) +
          " resident_estimate=" + std::to_string(c.resident_estimate);
      if (cache_ != nullptr)
        line += " cache_hits=" + std::to_string(cache_->hits()) +
                " cache_misses=" + std::to_string(cache_->misses());
      send_line(fd, line);
    } else if (cmd.verb == "SHUTDOWN") {
      send_line(fd, "OK shutting-down");
      send_line(fd, kEnd);
      queue_.shutdown();
      return;
    } else {
      send_line(fd, "ERR unknown-verb");
    }
    send_line(fd, kEnd);
  }
}

void JobServer::execute(JobRecord* job) {
  const JobSpec& spec = job->spec;
  // finish() may evict the record under the retention cap; anything
  // logged afterwards must not reach back through `job`.
  const std::uint64_t job_id = spec.id;
  const std::uint32_t attempt = job->attempt;
  const std::uint32_t max_attempts =
      spec.max_attempts > 0 ? spec.max_attempts : config_.max_attempts;

  // Terminal-record helper: the journal record lands (fsync'd) before the
  // state becomes visible through finish().
  const auto land = [&](JobState state, JobOutcome outcome) {
    JournalEvent event;
    event.type = JournalEventType::kFinish;
    event.job_id = job_id;
    event.attempt = attempt;
    event.final_state = state;
    event.scaffolds = outcome.scaffolds;
    event.scaffold_bases = outcome.scaffold_bases;
    event.cache_hit = outcome.cache_hit;
    event.error = state == JobState::kQuarantined ? job->fault_log
                                                  : outcome.error;
    journal_event(event);
    if (state == JobState::kQuarantined) outcome.error = job->fault_log;
    queue_.finish(job, state, std::move(outcome));
  };

  // A job whose wall-clock budget expired while queued (or during a retry
  // backoff) fails at dispatch without burning team time.
  if (deadline_expired(spec)) {
    JobOutcome outcome;
    outcome.error = "deadline-exceeded";
    land(JobState::kFailed, std::move(outcome));
    util::log_info("server: job " + std::to_string(job_id) +
                   " missed its deadline while queued");
    return;
  }

  {
    JournalEvent event;
    event.type = JournalEventType::kStart;
    event.job_id = job_id;
    event.attempt = attempt;
    journal_event(event);
  }
  util::log_info("server: job " + std::to_string(job_id) + " (tenant " +
                 spec.tenant + ") starting" +
                 (attempt > 0 ? " (attempt " + std::to_string(attempt + 1) +
                                    "/" + std::to_string(max_attempts) + ")"
                              : ""));

  JobOutcome outcome;
  try {
    pipeline::PipelineConfig cfg;
    cfg.k = spec.k;
    if (spec.min_count > 0) cfg.kmer.min_count = spec.min_count;
    cfg.scaffolding_rounds = spec.rounds;
    cfg.merge_bubbles = spec.diploid;
    cfg.checkpoint.dir = tenant_dir(spec.tenant);
    cfg.checkpoint.keep_last = config_.keep_last;
    if (!spec.chaos_spec.empty())
      cfg.chaos = pgas::ChaosPlan::parse(spec.chaos_seed, spec.chaos_spec);
    cfg.attempt = static_cast<int>(attempt);
    // The deadline rides the cancel hook: both stop the pipeline at the
    // next stage boundary; the catch below tells them apart.
    const JobSpec* spec_ptr = &job->spec;
    cfg.cancel_poll = [job, spec_ptr] {
      return job->cancel_requested.load(std::memory_order_relaxed) ||
             deadline_expired(*spec_ptr);
    };
    cfg.sync_k();

    // Re-arm the persistent team: clears fault plans, drops the previous
    // job's channels, rebuilds the barrier a faulted job may have shrunk.
    pipe_->reset(std::move(cfg));
    if (!spec.kill_spec.empty())
      pipe_->team().faults().set_plan(pgas::FaultPlan::parse(spec.kill_spec));

    if (cache_ != nullptr && spec.use_cache) {
      const std::uint64_t key = artifact_key(*pipe_, spec);
      if (auto hit = cache_->lookup_ufx(key)) {
        std::vector<std::vector<kcount::UfxRecord>> decoded;
        bool ok = true;
        for (const auto& shard : hit->shards) {
          auto records = ckpt::decode_ufx_shard(shard);
          if (!records) {
            ok = false;
            break;
          }
          decoded.push_back(std::move(*records));
        }
        if (ok) {
          pipe_->set_preloaded_ufx(std::move(decoded), hit->aux);
          outcome.cache_hit = true;
        }
      }
      if (!outcome.cache_hit) {
        ArtifactCache* cache = cache_.get();
        pipe_->set_ufx_export(
            [cache, key](std::vector<std::vector<std::byte>> shards,
                         const ckpt::AuxStats& aux) {
              cache->store_ufx(key, shards, aux);
            });
      }
    }

    // A retry resumes from the tenant checkpoint: work the dead attempt
    // already committed is not re-done.
    auto result =
        pipe_->execute_from_fastq(spec.libraries, spec.resume || attempt > 0);

    if (!io::write_fasta(spec.output_path, result.scaffolds))
      throw std::runtime_error("cannot write " + spec.output_path);
    outcome.scaffolds = result.scaffolds.size();
    for (const auto& rec : result.scaffolds)
      outcome.scaffold_bases += rec.seq.size();
    outcome.stages = std::move(result.stages);
    land(JobState::kDone, std::move(outcome));
    util::log_info("server: job " + std::to_string(job_id) + " done");
  } catch (const pipeline::JobCancelled& e) {
    if (!job->cancel_requested.load(std::memory_order_relaxed) &&
        deadline_expired(job->spec)) {
      // The deadline tripped the cancel hook, not the client. Terminal —
      // retrying a job that is already out of budget cannot help.
      outcome.error = "deadline-exceeded";
      land(JobState::kFailed, std::move(outcome));
      util::log_info("server: job " + std::to_string(job_id) +
                     " exceeded its deadline");
    } else {
      outcome.error = e.what();
      land(JobState::kCancelled, std::move(outcome));
      util::log_info("server: job " + std::to_string(job_id) + " cancelled");
    }
  } catch (const std::exception& e) {
    // RankKilled / PeerSuspect / any worker crash land here: the job's
    // attempt dies, the server does not — the next reset rebuilds the
    // team's sync state. Retry with backoff until the budget is spent,
    // then quarantine with the accumulated fault record.
    const std::string reason = e.what();
    if (!job->fault_log.empty()) job->fault_log += "; ";
    job->fault_log += "attempt " + std::to_string(attempt) + ": " + reason;
    if (attempt + 1 < max_attempts) {
      JournalEvent event;
      event.type = JournalEventType::kFail;
      event.job_id = job_id;
      event.attempt = attempt;
      event.error = reason;
      journal_event(event);
      const std::uint64_t backoff =
          retry_backoff_ms(config_.retry_backoff_ms, attempt, job_id);
      job->attempt = attempt + 1;
      queue_.requeue(job, std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(backoff));
      util::log_warn("server: job " + std::to_string(job_id) +
                     " attempt " + std::to_string(attempt + 1) + "/" +
                     std::to_string(max_attempts) + " failed (" + reason +
                     "); retrying in " + std::to_string(backoff) + "ms");
    } else {
      job->attempt = attempt + 1;
      outcome.error = reason;
      land(JobState::kQuarantined, std::move(outcome));
      util::log_warn("server: job " + std::to_string(job_id) +
                     " quarantined after " + std::to_string(attempt + 1) +
                     " attempt(s): " + reason);
    }
  }
}

}  // namespace hipmer::server
