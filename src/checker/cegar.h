// The CEGAR-style verification loop of the paper (§III-E / §IV-B):
//
//   1. model check IMP^μ against the property;
//   2. if a counterexample is produced, submit every adversary-dependent
//      step (consumption of a replayed/fabricated message) to the
//      cryptographic protocol verifier;
//   3. if some step is infeasible, refine: ban that adversary action and
//      re-check (the "invariant added to the property" of §VI);
//   4. if all steps are feasible — and, for linkability properties, the
//      observational-equivalence query confirms distinguishability — report
//      the counterexample as a realizable attack.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "checker/property.h"
#include "cpv/lte_crypto.h"
#include "fsm/fsm.h"
#include "mc/checker.h"
#include "threat/compose.h"

namespace procheck::checker {

struct PropertyResult {
  /// kInconclusive: a search budget (state bound, wall-clock deadline, or
  /// the CEGAR iteration cap) stopped verification before a conclusion —
  /// explicitly NOT "verified"; `note` carries the exhausted budget.
  enum class Status { kVerified, kAttack, kNotApplicable, kInconclusive };
  Status status = Status::kVerified;
  std::string property_id;
  std::string attack_id;  // from the property definition

  std::optional<mc::CounterExample> counterexample;  // kAttack only
  /// CEGAR refinements applied: "banned <command-label>: <reason>".
  std::vector<std::string> refinements;
  /// Set for linkability properties (whether or not it confirmed).
  std::optional<cpv::EquivalenceVerdict> equivalence;

  int iterations = 0;       // MC runs (1 = no refinement needed)
  double total_seconds = 0; // cumulative MC (graph traversal) time
  /// States explored summed across all MC iterations (throughput metric).
  std::size_t total_states = 0;
  /// Largest traversal footprint any iteration reached (bytes; the shared
  /// graph is counted once, by its build).
  std::size_t peak_visited_bytes = 0;
  mc::CheckStats last_stats;
  std::string note;  // human-readable outcome detail
};

/// The budget of one attempt at one property. `analyze` and `diff` triage
/// fill it, and the supervisor runs every attempt, retries included, under
/// exactly this budget.
struct CegarOptions {
  /// State cap of each traversal. At the default no search on any profile
  /// truncates, so kInconclusive only appears under tightened budgets.
  std::size_t max_states = mc::kDefaultMaxStates;
  int max_iterations = 16;
  /// Wall-clock deadline (seconds) across all MC iterations of one
  /// property; 0 = unbounded. Each iteration gets the remaining slice.
  double max_seconds = 0.0;
  /// Approximate per-iteration memory ceiling over the MC's visited-state
  /// structures (bytes); 0 = unbounded. A trip yields kInconclusive with
  /// the ceiling named in the note (the supervisor's OOM containment).
  std::size_t max_visited_bytes = 0;
};

/// The MC budget `options` sets for a traversal or graph build: its state
/// cap, deadline and memory ceiling.
mc::CheckOptions check_options(const CegarOptions& options);

/// Whether the UE machine implements the procedure `prop` is about: every
/// atom in requires_atoms appears in its condition or action vocabulary.
/// An inapplicable property is reported kNotApplicable without a check.
bool applicable(const PropertyDef& prop, const fsm::Fsm& ue_fsm);

/// Runs the full MC ⇄ CPV loop for one property as traversals of `graph`,
/// the reachable graph of the threat model (built once and shared by every
/// property). `ue_fsm` is the extracted machine used for observational-
/// equivalence queries. The options' state cap, deadline and memory
/// ceiling apply to each traversal.
PropertyResult check_property(const mc::ReachGraph& graph, const fsm::Fsm& ue_fsm,
                              const PropertyDef& prop, const cpv::LteCryptoModel& crypto,
                              const CegarOptions& options = {});

/// One-property convenience: builds the reachable graph of `tm` under the
/// options' budgets for this call alone (its seconds and bytes are folded
/// into the result), then runs the loop above.
PropertyResult check_property(const threat::ThreatModel& tm, const fsm::Fsm& ue_fsm,
                              const PropertyDef& prop, const cpv::LteCryptoModel& crypto,
                              const CegarOptions& options = {});

}  // namespace procheck::checker
