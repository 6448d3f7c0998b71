// ProChecker facade — the end-to-end pipeline of the paper's Fig. 2:
//
//   conformance suite + instrumented stack → information-rich log
//     → model extractor → UE FSM (Pro^μ)
//     → adversarial model instrumentor (⊗ MME^μ, ⊗ Dolev–Yao) → IMP^μ
//     → MC ⇄ CPV CEGAR loop over the 62-property catalog
//     → per-implementation findings (the rows of Table I).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "checker/cegar.h"
#include "checker/property.h"
#include "checker/supervisor.h"
#include "extractor/extractor.h"
#include "fsm/fsm.h"
#include "testing/conformance.h"
#include "threat/compose.h"
#include "ue/profile.h"

namespace procheck::checker {

struct AnalysisOptions {
  /// Explicit-state budget per MC run (see CegarOptions::max_states: large
  /// enough that no default-budget search truncates on any profile).
  std::size_t max_states = mc::kDefaultMaxStates;
  int max_cegar_iterations = 16;
  /// Restrict to properties whose id is in this set (empty = all 62).
  std::set<std::string> only_properties;
  /// Worker threads for the per-property CEGAR fan-out: 0 = one per
  /// hardware thread, 1 = sequential. The report is byte-identical at any
  /// value — results land in catalog order and workers share only
  /// immutables (see DESIGN.md §10).
  int jobs = 0;

  // --- Supervisor knobs (DESIGN.md §11) ------------------------------------
  /// Extra attempts for properties that throw or trip their deadline, each
  /// under the same budgets (a state-cap or memory-ceiling trip is final).
  /// 0 = fail fast to a structured kInconclusive (exceptions are still
  /// contained).
  int retries = 0;
  /// Wall-clock deadline (seconds) per attempt at a property, across its
  /// CEGAR iterations; 0 = none. Exhaustion yields Status::kInconclusive.
  double deadline_per_property = 0.0;
  /// Approximate per-property memory ceiling over the MC's visited-state
  /// structures (bytes, cooperatively polled); 0 = none.
  std::size_t mem_ceiling_bytes = 0;
  /// Crash-safe run journal path; "" disables journaling.
  std::string journal_path;
  /// Adopt completed outcomes from journal_path (skip re-verification).
  bool resume = false;
  /// Test hook forwarded to the supervisor: called at the start of every
  /// attempt; a throw simulates a worker crash.
  std::function<void(const std::string& property_id, int attempt)> fault_hook;
};

/// Fingerprint (16 hex digits) of the verdict-shaping slice of the analysis
/// configuration: budgets, property selection, retries, and the profile's
/// freshness-limit mitigation — everything that can change a journaled
/// verdict. Deliberately excludes `jobs` (reports are byte-identical at any
/// parallelism) and the journal/resume plumbing. Recorded in the run
/// journal header; --resume refuses a mismatch.
std::string analysis_options_hash(const AnalysisOptions& options,
                                  const ue::StackProfile& profile);

struct ImplementationReport {
  std::string profile_name;
  testing::ConformanceReport conformance;

  std::size_t log_records = 0;
  double extraction_seconds = 0;

  fsm::Fsm extracted;       // substate-aware machine (RQ2 / visualization)
  fsm::Fsm checking_model;  // flat machine with predicate conditions (MC input)

  std::vector<PropertyResult> results;
  /// Table I rows detected: attack ids of violated properties.
  std::set<std::string> attacks_found;

  /// Supervisor outcome per property (parallel to `results`): attempt
  /// counts, failure classes, resume provenance.
  std::vector<PropertyOutcome> outcomes;
  std::size_t resumed_count = 0;  // outcomes adopted from the run journal
  /// Non-empty when the run journal could not be written (analysis continued).
  std::string journal_error;
  /// The run refused to start (journal held by a live concurrent run, or
  /// --resume against an options-incompatible journal). `results` is empty
  /// and `abort_reason` carries the structured diagnostic.
  bool aborted = false;
  std::string abort_reason;
  /// The threat model's reachable-graph build (SupervisedRun::graph_stats):
  /// all zero when no property needed checking.
  mc::CheckStats graph_stats;

  int verified_count() const;
  int attack_count() const;
  int not_applicable_count() const;
  int inconclusive_count() const;
  /// Properties whose failure was contained (exception/deadline/mem/budget
  /// — everything except clean verdicts).
  int contained_count() const;
};

class ProChecker {
 public:
  /// Runs the complete pipeline against one stack profile. The USIM
  /// freshness-limit mitigation is taken from the profile (ablation knob).
  static ImplementationReport analyze(const ue::StackProfile& profile,
                                      const AnalysisOptions& options = {});

  /// The threat model for a given UE machine (exposed for benches/tests);
  /// the MME side is always the manual LTEInspector-style model, as in the
  /// paper.
  static threat::ThreatModel build_threat_model(const fsm::Fsm& ue_fsm);
};

}  // namespace procheck::checker
