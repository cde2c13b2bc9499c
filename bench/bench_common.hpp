#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "pgas/comm_stats.hpp"
#include "pgas/machine_model.hpp"
#include "pgas/topology.hpp"
#include "seq/read.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

/// Shared plumbing for the per-table/figure bench binaries.
///
/// Every bench reproduces one table or figure from the paper's §5. Two time
/// axes are reported (see pgas/machine_model.hpp): measured wall seconds on
/// this host (meaningful only as a sanity check — logical ranks share the
/// host's cores) and modeled seconds from the communication counters, which
/// carry the scaling *shape* the paper's plots show. Each binary prints the
/// table and mirrors it to a CSV next to the executable.
namespace hipmer::bench {

/// Default strong-scaling axis: logical ranks standing in for the paper's
/// 480..15,360 Edison cores. ranks_per_node=4 keeps a realistic
/// multi-node on/off-node split at every point.
struct ScalePoint {
  int ranks;
  int ranks_per_node;

  [[nodiscard]] pgas::Topology topology() const {
    return pgas::Topology{ranks, ranks_per_node};
  }
};

inline std::vector<ScalePoint> default_scale_axis(const util::Options& opts) {
  const auto rpn = static_cast<int>(opts.get_int("ranks-per-node", 4));
  std::vector<ScalePoint> axis;
  if (opts.has("ranks")) {
    axis.push_back(ScalePoint{static_cast<int>(opts.get_int("ranks", 8)), rpn});
    return axis;
  }
  const auto max_ranks = static_cast<int>(opts.get_int("max-ranks", 64));
  for (int r = 8; r <= max_ranks; r *= 2) axis.push_back(ScalePoint{r, rpn});
  return axis;
}

/// Aggregate a per-rank snapshot delta.
inline pgas::CommStatsSnapshot sum_stats(
    const std::vector<pgas::CommStatsSnapshot>& per_rank) {
  pgas::CommStatsSnapshot total;
  for (const auto& s : per_rank) total += s;
  return total;
}

inline std::vector<pgas::CommStatsSnapshot> snapshot_delta(
    const std::vector<pgas::CommStatsSnapshot>& before,
    const std::vector<pgas::CommStatsSnapshot>& after) {
  std::vector<pgas::CommStatsSnapshot> delta(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) delta[i] = after[i] - before[i];
  return delta;
}

/// Current and peak resident set size of this process in bytes, read from
/// /proc/self/status (VmRSS / VmHWM). Returns 0 on platforms without
/// procfs — callers should treat 0 as "unavailable", not "no memory".
struct ResidentMemory {
  std::size_t current_bytes = 0;
  std::size_t peak_bytes = 0;
};

inline ResidentMemory resident_memory() {
  ResidentMemory mem;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return mem;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1)
      mem.current_bytes = static_cast<std::size_t>(kb) * 1024;
    else if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1)
      mem.peak_bytes = static_cast<std::size_t>(kb) * 1024;
  }
  std::fclose(f);
  return mem;
}

/// Capacity-true resident bytes of a `std::vector<seq::Read>` — the
/// three-heap-strings-per-record baseline the packed arena is measured
/// against. Strings that fit the small-string buffer live inside the Read
/// itself; longer ones add their heap block (capacity + terminator).
inline std::size_t read_vector_bytes(const std::vector<seq::Read>& reads) {
  std::size_t bytes = sizeof(reads) + reads.capacity() * sizeof(seq::Read);
  const std::size_t sso = std::string().capacity();
  for (const auto& r : reads)
    for (const std::string* s : {&r.name, &r.seq, &r.quals})
      if (s->capacity() > sso) bytes += s->capacity() + 1;
  return bytes;
}

/// Print the table and write `<name>.csv` beside the binary.
inline void emit(const std::string& name, const std::string& title,
                 const util::TextTable& table) {
  std::printf("\n=== %s ===\n%s\n", title.c_str(), table.to_string().c_str());
  const std::string csv = name + ".csv";
  if (table.write_csv(csv)) std::printf("[csv written to %s]\n", csv.c_str());
}

}  // namespace hipmer::bench
