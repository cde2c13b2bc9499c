#pragma once

#include <cstdint>
#include <vector>

#include "align/alignment.hpp"
#include "pgas/thread_team.hpp"

/// §4.4 — insert size estimation of read libraries.
///
/// "We use full length alignments in which both ends of a pair are placed
/// within a common contig, and calculate the insert size. ... parallelized
/// by having p processors build local histograms of distinct sampled
/// alignments and eventually merging these p local histograms to a global
/// one."
namespace hipmer::scaffold {

struct InsertSizeEstimate {
  double mean = 0.0;
  double stddev = 0.0;
  std::uint64_t samples = 0;
};

/// Collective. `my_alignments` are the alignments this rank produced;
/// only those of library `library` are sampled. Mates are brought
/// together on one rank first, so the estimate does not depend on where
/// ingest placed the reads. Requires full-length alignments
/// (>= `full_fraction` of the read) on a common contig in FR orientation.
[[nodiscard]] InsertSizeEstimate estimate_insert_size(
    pgas::Rank& rank, const std::vector<align::ReadAlignment>& my_alignments,
    int library, double full_fraction = 0.95);

}  // namespace hipmer::scaffold
