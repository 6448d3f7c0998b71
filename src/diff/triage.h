// Property-mapped divergence triage (DESIGN.md §16): labels every
// divergence from diff_machines as property-relevant (which catalog
// property, which side violates it) or behavioral-only.
//
// Candidate selection is static and cheap: each diverging edge is rebuilt as
// the CommandMeta(s) the threat composer would emit for it — one per
// admissible provenance — and matched against the 62-property catalog's
// declarative matchers. A second tier catches shared deviations that never
// pairwise-diverge (e.g. the I6 SMC-replay edge seeded in every profile):
// attack-mapped properties whose bad-edge matcher names a deviation-
// indicator atom and hits *both* sides become candidates too.
//
// Static matching alone over-approximates (a matcher with pre-state
// constraints matches many benign edges), so the verdict is always the model
// checker's: every candidate property is verified on BOTH sides under the
// analysis supervisor (crash isolation, watchdog deadlines, retries under
// the same budget — DESIGN.md §11), fanned across common/thread_pool. The verdict matrix then
// classifies:
//
//   attack on exactly one side  -> divergent finding (that side violates)
//   attack on both sides        -> common finding (shared deviation)
//   inconclusive on either side -> inconclusive finding (budget tripped)
//   otherwise                   -> candidate dismissed; a divergence whose
//                                  candidates all dismissed is behavioral-only
//
// Verdicts are deterministic, land in catalog order, and each side runs
// under run_supervised's byte-determinism contract — so the triaged report
// stays byte-identical across runs and --jobs levels.
#pragma once

#include <cstddef>

#include "diff/diff.h"
#include "mc/checker.h"

namespace procheck::diff {

struct TriageOptions {
  /// Worker threads for the per-property fan-out on each side.
  std::size_t jobs = 1;
  /// State cap of each side's graph build (mirroring
  /// checker::AnalysisOptions): a pathological side degrades to a
  /// structured inconclusive finding.
  std::size_t max_states = mc::kDefaultMaxStates;
  /// Watchdog wall-clock deadline per property per side (seconds; 0 = none,
  /// matching checker::AnalysisOptions — wall-clock watchdogs trade the
  /// byte-identity-across-machines guarantee for boundedness, so they are
  /// opt-in here exactly as in `analyze`).
  double deadline_per_property = 0.0;
  /// Extra attempts, under the same budget, for properties that throw or
  /// trip their deadline.
  int retries = 0;
};

/// Runs triage over `report` (in place): attaches property ids to each
/// divergence and fills report.findings. A report that is inconclusive or
/// has no divergences is returned unchanged.
void triage(DiffReport& report, const Side& left, const Side& right,
            const TriageOptions& options = {});

}  // namespace procheck::diff
