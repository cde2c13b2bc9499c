#include "scaffold/insert_size.hpp"

#include <cmath>
#include <unordered_map>
#include <vector>

namespace hipmer::scaffold {

InsertSizeEstimate estimate_insert_size(
    pgas::Rank& rank, const std::vector<align::ReadAlignment>& my_alignments,
    int library, double full_fraction) {
  // Exchange full-length alignments so both mates of a pair meet on rank
  // pair % P: ingest splits files at record boundaries, so a pair's mates
  // may have been read by different ranks.
  const auto p = static_cast<std::uint64_t>(rank.nranks());
  std::vector<std::vector<align::ReadAlignment>> outgoing(
      static_cast<std::size_t>(rank.nranks()));
  for (const auto& a : my_alignments) {
    if (a.library != library) continue;
    if (a.aligned_len() <
        static_cast<std::int32_t>(full_fraction * a.read_len))
      continue;
    outgoing[static_cast<std::size_t>(a.pair_id % p)].push_back(a);
  }
  const auto incoming = rank.alltoallv(outgoing);

  // Best full-length alignment per (pair, mate). A read's alignments all
  // come from the rank that read it, in the aligner's order, so ties keep
  // the first one wherever the read was placed.
  struct PairBest {
    align::ReadAlignment mate[2];
    bool have[2] = {false, false};
  };
  std::unordered_map<std::uint64_t, PairBest> pairs;
  for (const auto& a : incoming) {
    auto& pb = pairs[a.pair_id];
    const auto m = static_cast<std::size_t>(a.mate);
    auto prefer = [](const align::ReadAlignment& x,
                     const align::ReadAlignment& y) {
      if (x.score != y.score) return x.score > y.score;
      if (x.contig_id != y.contig_id) return x.contig_id < y.contig_id;
      return x.contig_start < y.contig_start;
    };
    if (!pb.have[m] || prefer(a, pb.mate[m])) {
      pb.mate[m] = a;
      pb.have[m] = true;
    }
    rank.stats().add_work();
  }

  // Insert = 5'-to-5' distance for FR pairs on a common contig.
  double sum = 0.0;
  double sq_sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& [pair_id, pb] : pairs) {
    if (!pb.have[0] || !pb.have[1]) continue;
    const auto& a = pb.mate[0];
    const auto& b = pb.mate[1];
    if (a.contig_id != b.contig_id) continue;
    if (a.read_fwd == b.read_fwd) continue;  // FR libraries only
    const auto& fwd = a.read_fwd ? a : b;
    const auto& rev = a.read_fwd ? b : a;
    const std::int64_t insert = rev.contig_end - fwd.contig_start;
    if (insert <= 0) continue;
    sum += static_cast<double>(insert);
    sq_sum += static_cast<double>(insert) * static_cast<double>(insert);
    ++n;
    rank.stats().add_work();
  }

  // Merge the per-rank "histograms" (sufficient statistics).
  const double global_sum = rank.allreduce_sum(sum);
  const double global_sq = rank.allreduce_sum(sq_sum);
  const std::uint64_t global_n = rank.allreduce_sum(n);

  InsertSizeEstimate est;
  est.samples = global_n;
  if (global_n > 0) {
    est.mean = global_sum / static_cast<double>(global_n);
    const double var =
        global_sq / static_cast<double>(global_n) - est.mean * est.mean;
    est.stddev = var > 0 ? std::sqrt(var) : 0.0;
  }
  return est;
}

}  // namespace hipmer::scaffold
