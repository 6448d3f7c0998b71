#include "common/supervise.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

namespace procheck::supervise {

std::string_view to_string(Failure f) {
  switch (f) {
    case Failure::kNone: return "none";
    case Failure::kException: return "exception";
    case Failure::kDeadline: return "deadline";
    case Failure::kMemCeiling: return "mem-ceiling";
    case Failure::kBudget: return "budget";
    case Failure::kCancelled: return "cancelled";
    case Failure::kContested: return "contested";
    case Failure::kUnavailable: return "sul_unavailable";
  }
  return "?";
}

std::optional<Failure> failure_from_token(std::string_view token) {
  for (int i = 0; i <= static_cast<int>(Failure::kUnavailable); ++i) {
    const Failure f = static_cast<Failure>(i);
    if (to_string(f) == token) return f;
  }
  return std::nullopt;
}

Outcome run_attempts(const Policy& policy, const std::function<Attempt(int attempt)>& attempt) {
  const int total = 1 + std::max(0, policy.retries);
  Outcome out;
  Attempt& last = out;
  for (int k = 1;; ++k) {
    try {
      last = attempt(k);
    } catch (const std::exception& e) {
      last = {Failure::kException, e.what()};
    } catch (...) {
      last = {Failure::kException, "unknown exception type"};
    }
    out.attempts = k;
    // Only these can come out otherwise on a repeat under the same budget.
    if (out.failure != Failure::kException && out.failure != Failure::kDeadline &&
        out.failure != Failure::kUnavailable) {
      return out;
    }
    if (k == total) break;
    if (policy.backoff_seconds > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(policy.backoff_seconds * std::ldexp(1.0, k - 1)));
    }
  }
  if (total > 1) {
    out.exhausted_note = " [supervisor: " + std::string(to_string(out.failure)) +
                         " persisted through " + std::to_string(total) + " attempts]";
  }
  return out;
}

}  // namespace procheck::supervise
