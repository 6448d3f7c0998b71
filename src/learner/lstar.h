// L* for Mealy machines (Angluin's algorithm in the Niese/Shahbaz Mealy
// formulation) — the black-box active-learning baseline the paper compares
// against (§VIII, citing de Ruiter & Poll and Fiterău-Broștean et al.).
//
// The learner maintains an observation table (S, E, T): rows are access
// prefixes, columns are distinguishing suffixes, entries are the output
// suffixes observed on the SUL. When the table is closed and consistent, a
// hypothesis Mealy machine is built and handed to a random-testing
// equivalence oracle; counterexamples are processed by adding all their
// suffixes to E.
//
// The deliverables here are the *cost metrics* (membership queries, resets,
// total input steps) and the learned machine — bench_blackbox_comparison
// contrasts them with ProChecker's single instrumented conformance run and
// predicate-rich extracted model.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fsm/fsm.h"
#include "learner/sul.h"

namespace procheck::learner {

/// A learned Mealy machine: states are row indices; transitions carry
/// input/output labels.
struct MealyMachine {
  int initial = 0;
  int state_count = 0;
  /// (state, input) -> (next state, output).
  std::map<std::pair<int, std::string>, std::pair<int, std::string>> delta;

  /// Runs a word from the initial state, returning the output sequence.
  std::vector<std::string> run(const std::vector<std::string>& word) const;

  /// Renders as a (condition/action) FSM for comparison with the extracted
  /// white-box model: states get synthetic names q0..qN — the "no proper
  /// indication of states" limitation the paper points out.
  fsm::Fsm to_fsm() const;
};

struct LearnResult {
  MealyMachine machine;
  long membership_queries = 0;  // distinct words actually sent to the SUL
  long equivalence_queries = 0;
  long counterexamples = 0;
  long sul_resets = 0;
  long sul_steps = 0;
  // Output-trie cache effectiveness (DESIGN.md §14): a hit answered a word
  // that was queried before; a prefix hit answered a word purely from a
  // longer word's cached edges (no SUL contact at all); a miss went to the
  // SUL. Batch counters record how the misses were shipped.
  long cache_hits = 0;
  long cache_prefix_hits = 0;
  long cache_misses = 0;
  long batch_queries = 0;  // query_batch() calls issued by the table
  long batched_words = 0;  // deduplicated words shipped in those batches
  bool converged = false;  // equivalence oracle found no counterexample
  /// The SUL degraded to kSulUnavailable mid-learning (remote transport
  /// down, circuit open, or the learning supervisor poisoned it): the run
  /// terminated with a structured inconclusive result instead of learning
  /// from unanswerable queries. `machine` is the last (possibly empty)
  /// hypothesis and must not be trusted.
  bool inconclusive = false;
  std::string note;  // diagnostic when inconclusive
  // Nondeterminism-arbitration counters, filled by the learning supervisor
  // (learn_supervisor.h) — plain learn_mealy leaves them zero: observation
  // conflicts arbitrated, fresh k-of-n re-queries those arbitrations issued,
  // and committed edges the majority overturned (each forcing a re-learn
  // from the corrected journal).
  long arbitrations = 0;
  long arbitration_requeries = 0;
  long arbitration_overrides = 0;
  /// Cells arbitration could not resolve (no k-of-n majority): structured
  /// "no k-of-n majority for word ... at position ... (votes: ...)" lines.
  /// Non-empty only alongside inconclusive — a contested cell never ends up
  /// in a machine.
  std::vector<std::string> quarantined;
};

/// Safety bound on refinement rounds.
constexpr int kMaxRounds = 25;

struct LearnOptions {
  /// Random-testing equivalence oracle: words per round and maximum length.
  int eq_test_words = 300;
  int eq_test_max_length = 8;
  std::uint64_t seed = 0xC0FFEE;
};

/// Learns a Mealy machine for the UE black box over input_alphabet(). Works
/// against any Sul — the in-process harness or net::RemoteUeSul; an
/// unavailable SUL yields result.inconclusive, never a hang or a throw. The
/// learn stops at the first kSulUnavailable answer and never caches it: that
/// answer is the one stop signal, and learn_supervised stops a learn by
/// poisoning its SUL (learn_supervisor.h).
LearnResult learn_mealy(Sul& sul, const LearnOptions& options = LearnOptions());

}  // namespace procheck::learner
