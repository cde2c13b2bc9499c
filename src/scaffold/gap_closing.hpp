#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "align/alignment.hpp"
#include "align/contig_store.hpp"
#include "pgas/thread_team.hpp"
#include "scaffold/insert_size.hpp"
#include "scaffold/types.hpp"
#include "seq/read.hpp"
#include "seq/read_set_view.hpp"

/// §4.8 — gap closing.
///
/// Gaps (positive-gap junctions of the scaffolds) are distributed round
/// robin across ranks — "this suffices to prevent most imbalance because it
/// breaks up the gaps from a single scaffold, which tend to require similar
/// costs to close". Reads are projected into gaps from the alignments (end
/// overhangs and mate projections) and shipped to the gap's owner, which
/// tries the paper's closure methods in order of increasing cost:
///
///   1. **spanning** — a single read that begins with the end of the left
///      contig and finishes with the start of the right one;
///   2. **k-mer walk** — a mini-assembly over the gap's reads "with
///      iteratively increasing k-mer sizes", first left-to-right, then
///      right-to-left;
///   3. **patching** — an acceptable overlap between the two incomplete
///      walks.
namespace hipmer::scaffold {

struct GapClosingConfig {
  /// Starting walk k (the assembly k) and the iterative-increase schedule.
  int k = 31;
  int walk_k_step = 10;
  int max_walk_k = 63;
  /// Anchor length for spanning/patching matches.
  int anchor = 21;
  /// Mates within mean + this*sigma of a gap-facing contig end project
  /// their partner into the gap.
  double reach_sigma = 3.0;
  /// Slack for "alignment touches the contig end".
  int end_slack = 5;
  /// Cap on reads collected per gap (memory guard). Applied after
  /// sort+dedup so the retained set is a pure function of the projected
  /// read set, independent of arrival order / read distribution.
  std::size_t max_reads_per_gap = 512;
};

/// Replicated description of one gap.
struct GapSpec {
  std::uint64_t gap_id = 0;
  std::uint64_t scaffold_id = 0;
  /// Index of the junction within the scaffold (between placement i and
  /// i+1).
  std::uint32_t junction = 0;
  std::uint32_t left_contig = 0;
  bool left_reversed = false;
  std::uint32_t right_contig = 0;
  bool right_reversed = false;
  float gap_estimate = 0.0f;
};

struct Closure {
  std::uint64_t gap_id = 0;
  bool closed = false;
  /// Method that succeeded: 'S'panning, 'W'alk, 'P'atch, '-' none.
  char method = '-';
  /// Bases between the two contig ends (may be empty when they abut).
  std::string fill;
};

/// Enumerate the positive-gap junctions of `scaffolds` (deterministic;
/// every rank computes the same list from the replicated scaffolds).
[[nodiscard]] std::vector<GapSpec> enumerate_gaps(
    const std::vector<ScaffoldRecord>& scaffolds, double min_gap = 0.5);

class GapCloser {
 public:
  GapCloser(pgas::ThreadTeam& team, GapClosingConfig config);

  /// Collective: project reads into gaps, exchange them, close. Returns the
  /// closures for gaps owned by this rank (gap_id % P).
  /// `my_reads_by_library[l]` holds this rank's reads of library l — pair
  /// ids are only unique *within* a library.
  [[nodiscard]] std::vector<Closure> run(
      pgas::Rank& rank, const std::vector<GapSpec>& gaps,
      const align::ContigStore& store,
      const std::vector<seq::ReadSetView>& my_reads_by_library,
      const std::vector<align::ReadAlignment>& my_alignments,
      const std::vector<InsertSizeEstimate>& inserts);

  /// Legacy adapter for bare read vectors.
  [[nodiscard]] std::vector<Closure> run(
      pgas::Rank& rank, const std::vector<GapSpec>& gaps,
      const align::ContigStore& store,
      const std::vector<const std::vector<seq::Read>*>& my_reads_by_library,
      const std::vector<align::ReadAlignment>& my_alignments,
      const std::vector<InsertSizeEstimate>& inserts);

 private:
  struct GapWork {
    const GapSpec* spec;
    std::vector<std::string> reads;
  };

  [[nodiscard]] Closure close_gap(pgas::Rank& rank, const GapSpec& gap,
                                  const std::vector<std::string>& reads,
                                  const align::ContigStore& store) const;

  /// Spanning: returns true and sets `fill` on success.
  bool try_spanning(const std::string& flank_left,
                    const std::string& flank_right,
                    const std::vector<std::string>& reads,
                    std::string& fill) const;

  /// Greedy unique-extension walk from the end of `flank_left` toward the
  /// start of `flank_right` using k-mers of the given size. On success
  /// returns the complete bridge (including both flank k-mers) in
  /// `bridge`; on failure leaves the longest partial walk there.
  bool walk(const std::vector<std::string>& reads,
            const std::string& flank_left, const std::string& flank_right,
            int walk_k, std::size_t max_len, std::string& bridge) const;

  pgas::ThreadTeam& team_;
  GapClosingConfig config_;
};

}  // namespace hipmer::scaffold
