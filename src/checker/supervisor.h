// Analysis supervisor (DESIGN.md §11 "Failure containment & resume").
//
// Layered between ProChecker::analyze (and diff triage) and the per-property
// CEGAR workers. The threat model's reachable graph and the cryptographic
// verifier are each built once, before the fan-out, and every worker checks
// its property against the graph and judges its counterexamples with the
// verifier, both read-only.
// Each property runs crash-isolated under one budget, the caller's
// CegarOptions: a state cap plus a cooperative watchdog (wall-clock
// deadline and approximate memory ceiling, polled in the MC hot loop), so
// any single property can throw or trip a budget and the catalog run still
// completes with a structured outcome for every property. A property whose
// attempt threw or ran out of time is retried on the shared ladder
// (common/supervise.h) under the same budget; a state-cap or memory-ceiling
// trip is final, since a repeat trips it at the same point. The last
// attempt falls back to kInconclusive with the failure class embedded.
// Every completed outcome is appended to a crash-safe JSONL run journal
// (common/journal.h), and a resumed run adopts journaled outcomes instead of
// re-verifying them — reproducing a verdict report byte-identical to an
// uninterrupted run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checker/cegar.h"
#include "checker/property.h"
#include "common/supervise.h"
#include "cpv/lte_crypto.h"
#include "fsm/fsm.h"
#include "threat/compose.h"

namespace procheck::checker {

/// How a property's verification failed to reach a clean verdict: one of
/// kException, kDeadline, kMemCeiling or kBudget.
using FailureClass = supervise::Failure;

/// Stable lower-case token of a verdict (journal records, diff reports).
std::string_view status_token(PropertyResult::Status s);

/// The supervisor's structured per-property outcome: the verdict plus the
/// containment metadata (what failed, how many attempts were consumed).
struct PropertyOutcome {
  PropertyResult result;
  int attempts = 1;
  FailureClass failure = FailureClass::kNone;
  /// Failure detail of the last attempt (exception message, tripped budget).
  std::string diagnostics;
  /// True when the outcome was adopted from the run journal (not re-verified).
  bool resumed = false;
};

struct SupervisorOptions {
  /// Extra attempts after the first for a property whose attempt threw or
  /// tripped its deadline. Every attempt runs under the same CegarOptions,
  /// and none sleeps before the next.
  int retries = 0;

  /// Path of the crash-safe run journal; "" disables journaling.
  std::string journal_path;
  /// Adopt completed outcomes from journal_path instead of re-verifying.
  /// Without resume, a pre-existing journal at the path is clobbered.
  bool resume = false;
  /// Journal header tag (the profile name): a resumed journal with a
  /// different tag is discarded, never mixed into this run's results.
  std::string run_tag;
  /// Fingerprint of the analysis options that shape verdicts (budgets,
  /// property selection — anything jobs-independent; see
  /// checker::analysis_options_hash), and for ProChecker::analyze also of
  /// the threat model checked. Recorded in the journal header; a
  /// --resume against a journal written under a *different* fingerprint is
  /// refused outright (aborted run) — adopting those verdicts would silently
  /// mix incompatible budgets into one report.
  std::string options_hash;

  /// Worker threads for the per-property fan-out; <= 1 runs it inline.
  std::size_t jobs = 1;
  /// Test hook: invoked at the start of every attempt; a throw simulates a
  /// worker crash inside the MC/CEGAR loop.
  std::function<void(const std::string& property_id, int attempt)> fault_hook;
};

struct SupervisedRun {
  /// One outcome per selected property, in selection (catalog) order.
  std::vector<PropertyOutcome> outcomes;
  std::size_t resumed = 0;  // outcomes adopted from the journal
  std::size_t journal_records = 0;
  /// Non-empty when --resume discarded a foreign journal, or journaling
  /// failed mid-run: the analysis continued (containment) either way.
  std::string journal_error;
  /// True when the run refused to start (journal locked by a live process,
  /// or --resume against an options-hash-incompatible journal). No property
  /// was verified; `abort_reason` carries the structured diagnostic.
  bool aborted = false;
  std::string abort_reason;
  /// The reachable-graph build this run did before the fan-out: states,
  /// edges, retained bytes, seconds and truncation. All zero when it built
  /// none (every selected property adopted from the journal or not
  /// applicable, or the caller supplied the graph).
  mc::CheckStats graph_stats;
};

/// Runs `selected` under supervision, every attempt under `cegar`.
/// Exceptions never escape a worker: every property produces a
/// PropertyOutcome. The verdicts are byte-for-byte deterministic across jobs
/// levels and across kill/resume cycles for deterministic budgets (see
/// DESIGN.md §11 for the determinism argument). Builds the reachable graph
/// of `tm` under cegar's state cap and memory ceiling, unless no selected
/// property needs checking, and one cryptographic verifier from
/// `crypto_options` that every worker shares.
SupervisedRun run_supervised(const threat::ThreatModel& tm, const fsm::Fsm& ue_fsm,
                             const std::vector<const PropertyDef*>& selected,
                             const cpv::LteCryptoModel::Options& crypto_options,
                             const CegarOptions& cegar, const SupervisorOptions& options);

/// The same, checking against a graph the caller built (and may share
/// across runs on the same threat model).
SupervisedRun run_supervised(const mc::ReachGraph& graph, const fsm::Fsm& ue_fsm,
                             const std::vector<const PropertyDef*>& selected,
                             const cpv::LteCryptoModel::Options& crypto_options,
                             const CegarOptions& cegar, const SupervisorOptions& options);

/// Journal record codec. Encodes the deterministic slice of an outcome
/// (verdict, note, refinements, equivalence, counterexample, containment
/// metadata) as a single-line JSON object; timing/footprint stats are
/// deliberately excluded (they are not part of the determinism contract).
std::string encode_outcome(const PropertyOutcome& outcome);
/// Strict inverse; nullopt on any malformation (the record is then treated
/// as absent and the property re-verified — safe by construction).
std::optional<PropertyOutcome> decode_outcome(std::string_view json);

}  // namespace procheck::checker
