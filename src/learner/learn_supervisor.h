// Learning supervisor (DESIGN.md §15 "Crash-safe resumable learning").
//
// Wraps learn_mealy the way checker::run_supervised wraps analyze: the
// learner itself stays a pure, deterministic algorithm, and everything a
// live system-under-learning can do to it — crash the process mid-run,
// hang a query, answer nondeterministically — is absorbed by a decorator
// around the Sul plus a retry ladder around the whole learn:
//
//   * a crash-safe learn journal (common/journal.h) records the
//     alphabet/options fingerprint in its header and every resolved
//     (word → outputs) observation as a CRC-tagged line, so
//     `learn --journal X --resume` replays the surviving observations and
//     continues byte-identically from any kill point;
//   * nondeterminism arbitration: when a fresh answer contradicts an edge
//     the journal already committed, the word is re-queried k-of-n (default
//     3-of-5) through Sul::query_word_fresh (no transport smooths answers:
//     this is the only nondeterminism defence), the majority is committed —
//     rewriting the contradicted journal records and restarting the learn
//     when the *committed* edge loses — and cells with no k-majority are
//     quarantined into a structured inconclusive result instead of silently
//     keeping the first observation;
//   * per-query and per-attempt watchdogs (wall-clock deadline, fresh-query
//     and input-symbol budgets) poison the SUL cooperatively (CancelToken +
//     the structured kSulUnavailable symbol), and a retry ladder degrades
//     the equivalence-oracle effort before giving up — learn_supervised can
//     never hang and never lets an exception escape.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "learner/lstar.h"
#include "learner/sul.h"

namespace procheck::learner {

/// How a supervised learn failed to converge cleanly. kContested (no
/// k-majority for a cell, or the override bound tripped) and kCancelled are
/// terminal; the resource classes retry on the degrade ladder; kException
/// and kUnavailable retry at full budget (the search size was not the
/// problem — the environment was).
enum class LearnFailure : std::uint8_t {
  kNone,
  kException,
  kDeadline,
  kQueryBudget,
  kByteBudget,
  kCancelled,
  kContested,
  kUnavailable,
};

std::string_view to_string(LearnFailure f);

struct LearnSupervisorOptions {
  LearnOptions learn;

  /// Path of the crash-safe learn journal; "" disables journaling.
  std::string journal_path;
  /// Replay observations from journal_path instead of re-querying them.
  /// Without resume, a pre-existing journal at the path is clobbered.
  bool resume = false;
  /// Journal header tag (the profile name): a resumed journal with a
  /// different tag is discarded, never mixed into this run.
  std::string run_tag;

  /// Nondeterminism arbitration: on contradiction, re-query the word
  /// arbitration_n times fresh and commit any symbol reaching
  /// arbitration_k votes per position (k must satisfy n/2 < k <= n so a
  /// majority is unique). arbitration_n = 0 disables arbitration
  /// (first-observation-wins, the pre-supervisor behavior).
  int arbitration_k = 3;
  int arbitration_n = 5;
  /// Committed-edge overrides allowed per run before the contradiction is
  /// declared contested (each override restarts the learn from the
  /// corrected journal, so this bounds the restart loop).
  int max_overrides = 8;

  /// Per-attempt wall-clock deadline (seconds); 0 = none. Replayed words
  /// are free — only fresh SUL contact is gated — so a resumed attempt
  /// always makes incremental progress.
  double deadline_seconds = 0.0;
  /// Per-membership-query deadline (seconds); 0 = none. Checked post-hoc:
  /// the slow answer is journaled first, then the attempt is poisoned, so
  /// the retry resumes past the slow query instead of repeating it.
  double query_deadline_seconds = 0.0;
  /// Fresh membership queries / fresh input symbols allowed per attempt;
  /// 0 = unbounded.
  long query_budget = 0;
  long byte_budget = 0;

  /// Extra attempts after the first for failed (non-terminal) runs.
  int retries = 0;
  /// Base of the exponential retry backoff (seconds); 0 disables the sleep.
  double backoff_seconds = 0.05;
  /// Degrade ladder: eq_test_words and eq_test_max_length shrink by this
  /// factor on every retry after a resource trip, so a learn that cannot
  /// afford its oracle converges to an explicit inconclusive.
  double degrade_factor = 0.5;

  /// Observations appended between durable journal commits (fsync+rename).
  /// A crash loses at most this many answered-but-uncommitted words, all of
  /// which are safely re-queried on resume.
  int journal_commit_every = 64;

  /// Cooperative run-level cancellation (polled on every query).
  const CancelToken* cancel = nullptr;
  /// Test hook: invoked with a monotonically increasing probe index before
  /// (even index) and after (odd index) every fresh SUL query or batch; a
  /// throw simulates a crash at exactly that point in the learn.
  std::function<void(long probe)> fault_hook;
};

struct SupervisedLearn {
  LearnResult result;
  int attempts = 1;
  LearnFailure failure = LearnFailure::kNone;
  /// Failure detail of the last attempt (exception message, tripped budget,
  /// quarantined cell).
  std::string diagnostics;
  /// Observations adopted from the journal at startup / served from it.
  std::size_t adopted = 0;
  std::size_t replayed = 0;
  /// Observation records durable in the journal (header excluded).
  std::size_t journal_records = 0;
  /// Non-empty when journaling degraded mid-run (the learn continued).
  std::string journal_error;
  /// Non-empty when --resume found a journal it could not fully adopt (bad
  /// header, wrong tag, malformed/contradicting record): says what was kept.
  std::string journal_note;
  /// True when the run refused to start (journal locked by a live process,
  /// --resume against an options-incompatible journal, malformed k/n). No
  /// query was issued; `abort_reason` carries the structured diagnostic.
  bool aborted = false;
  std::string abort_reason;
};

/// Runs learn_mealy over `sul` under supervision. Exceptions never escape;
/// the result is either a converged machine, or a structured inconclusive
/// naming its failure class — never a hang, a std::terminate, or a machine
/// built on contested observations.
SupervisedLearn learn_supervised(Sul& sul, const LearnSupervisorOptions& options);

/// Fingerprint of every knob that shapes which observations a learn makes
/// (the alphabet, the oracle budgets, the seed, the arbitration shape),
/// mirroring checker::analysis_options_hash: recorded in the journal header,
/// and --resume refuses a journal written under a different fingerprint.
std::string learn_options_hash(const LearnOptions& learn, int arbitration_k,
                               int arbitration_n);

// --- Journal record codec (exposed for tests and the fuzz corpus) -----------
//
// The learn journal is a line journal (common/journal.h adds the CRC tags):
//   line 0:  learn-header v=1 tag=<profile> opts=<16-hex fingerprint>
//   line k:  obs <len> <in_1> ... <in_len> <out_1> ... <out_len>
// Decoding is strict: inputs must be alphabet symbols, outputs non-empty
// space-free tokens other than kSulUnavailable, counts must match. A
// malformed record stops adoption at the valid prefix; it is never guessed
// at.

struct LearnJournalHeader {
  std::string tag;
  std::string opts;
};

struct LearnObservation {
  std::vector<std::string> word;
  std::vector<std::string> outputs;
};

std::string encode_learn_header(const std::string& tag, const std::string& opts_hash);
std::optional<LearnJournalHeader> decode_learn_header(std::string_view payload);

std::string encode_observation(const std::vector<std::string>& word,
                               const std::vector<std::string>& outputs);
std::optional<LearnObservation> decode_observation(std::string_view payload);

}  // namespace procheck::learner
