// Shared supervision core (DESIGN.md §11, §15).
//
// `analyze` (checker::run_supervised) and `learn` (learner::learn_supervised)
// both run work that may throw, trip a budget, or be cancelled, and both
// want the same answer: a structured failure class, never an escaped
// exception. This module holds what they share — the failure taxonomy and
// the retry ladder. Each supervisor keeps only how one attempt runs and how
// its result is classified.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace procheck::supervise {

/// Why supervised work failed to reach a clean result. The tokens
/// (to_string) are stable: analysis journal records and the verdict block's
/// `contained failures:` line carry them.
///   kException   the attempt threw (contained, never propagated);
///   kDeadline    a wall-clock watchdog tripped;
///   kMemCeiling  the approximate visited-set ceiling tripped (analyze);
///   kBudget      the state bound / CEGAR iteration cap tripped (analyze);
///   kCancelled   the caller's CancelToken fired: interrupted, not concluded;
///   kContested   no k-of-n majority for a learned cell (learn);
///   kUnavailable the system under learning stopped answering (learn).
enum class Failure : std::uint8_t {
  kNone,
  kException,
  kDeadline,
  kMemCeiling,
  kBudget,
  kCancelled,
  kContested,
  kUnavailable,
};

std::string_view to_string(Failure f);
/// Inverse of to_string; nullopt for an unknown token.
std::optional<Failure> failure_from_token(std::string_view token);

/// The retry ladder's knobs.
struct Policy {
  /// Extra attempts after the first.
  int retries = 0;
  /// Attempt k sleeps backoff_seconds * 2^(k-1) before the next; 0 = none.
  /// Learn sets one, since its SUL may be remote; an analyze attempt reads
  /// only immutable inputs, so a sleep would change nothing it reads.
  double backoff_seconds = 0;
};

/// One attempt's classification.
struct Attempt {
  Failure failure = Failure::kNone;
  /// Detail of the attempt; the exception message for kException.
  std::string diagnostics;
};

/// The ladder's result: the last attempt's classification, plus what the
/// ladder itself adds.
struct Outcome : Attempt {
  int attempts = 0;
  /// " [supervisor: <class> persisted through N attempts]" when a retried
  /// ladder ran out of attempts; empty otherwise.
  std::string exhausted_note;
};

/// Runs attempt(k) for k = 1 .. 1 + retries, every attempt under the
/// caller's budget:
///   - an exception thrown by attempt becomes kException and never escapes;
///   - kNone, kCancelled and kContested stop the ladder, and so do kBudget
///     and kMemCeiling: the same graph, bans and byte accounting trip them
///     at the same point on a repeat;
///   - kException, kDeadline and kUnavailable are retried.
/// The returned outcome is the last attempt's classification.
Outcome run_attempts(const Policy& policy, const std::function<Attempt(int attempt)>& attempt);

}  // namespace procheck::supervise
