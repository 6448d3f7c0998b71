// System-under-learning harness for black-box active-automata learning —
// the approach the paper contrasts ProChecker against (§I "Plausible
// approaches", §VIII: active learning "is prohibitively expensive as [it
// requires] a significantly high time and number of queries", and the
// inferred FSM "is not sufficiently large and semantically rich").
//
// Following the protocol-state-fuzzing setup of de Ruiter & Poll (the
// paper's [13]), the harness plays the network side: it holds the
// subscriber credentials and enough session state to craft the *best
// possible valid* instance of each input symbol (a fresh authentication
// vector, a correctly MAC'd SMC, a properly ciphered attach_accept, ...),
// sends it to the black-box UE, and maps the response to an output symbol.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nas/crypto.h"
#include "nas/security_context.h"
#include "nas/sqn.h"
#include "ue/ue_nas.h"

namespace procheck::learner {

/// The learning alphabet: abstract input symbols the harness concretizes.
inline const std::vector<std::string>& input_alphabet() {
  static const std::vector<std::string> kAlphabet = {
      "power_on",          "authentication_request", "security_mode_command",
      "attach_accept",     "identity_request",       "guti_reallocation_command",
      "detach_request",    "attach_reject",          "paging",
  };
  return kAlphabet;
}

/// Distinguished output symbol a transport-backed SUL degrades to when the
/// system under learning cannot be reached (circuit open, retries exhausted).
/// Learners treat any word containing it as unanswerable and converge to a
/// structured inconclusive result instead of learning from garbage.
inline constexpr const char* kSulUnavailable = "sul_unavailable";

/// Black-box interface: reset to the initial state, then step through input
/// symbols observing output symbols (the response message name or "null").
/// Implementations: the in-process UeSul below and net::RemoteUeSul (the
/// same queries over a fault-tolerant socket transport).
class Sul {
 public:
  virtual ~Sul() = default;

  virtual void reset() = 0;
  /// Executes one abstract input; returns the output symbol. Counts both
  /// resets and steps (the cost metrics the paper's comparison is about).
  virtual std::string step(const std::string& input) = 0;

  virtual long resets() const = 0;
  virtual long steps() const = 0;

  /// Why the SUL last degraded to kSulUnavailable ("" when it never did, or
  /// when the implementation cannot say). Transport-backed SULs surface the
  /// server's structured close reason here (server_busy, auth_failed,
  /// quota_exceeded, ...), so an inconclusive LearnResult names its cause.
  virtual std::string unavailable_reason() const { return ""; }

  /// Answers one whole membership query (reset + the word's symbols). The
  /// base implementation is the sequential fallback — reset() then step()
  /// per symbol — so every Sul supports it; transport-backed SULs override
  /// it to ship the word in a single round trip (DESIGN.md §14).
  virtual std::vector<std::string> query_word(const std::vector<std::string>& word);

  /// Answers many membership queries. Base fallback: query_word() per item,
  /// in order. Transport-backed SULs override it to pipeline batched frames.
  /// The result has exactly one output word per input word, index-aligned.
  virtual std::vector<std::vector<std::string>> query_batch(
      const std::vector<std::vector<std::string>>& words);

  /// Answers one membership query with a *fresh* execution: the sample the
  /// learning supervisor's k-of-n nondeterminism arbitration takes of a
  /// contested word. Base implementation: query_word() — no Sul here keeps
  /// an answer cache, so every query is already fresh. Decorators override
  /// it to observe arbitration traffic separately.
  virtual std::vector<std::string> query_word_fresh(
      const std::vector<std::string>& word);

  /// Runs a whole word from the initial state (one membership query).
  std::vector<std::string> run(const std::vector<std::string>& word) {
    return query_word(word);
  }
};

/// The in-process harness driving the simulated UE stack directly.
class UeSul final : public Sul {
 public:
  explicit UeSul(ue::StackProfile profile);

  void reset() override;
  std::string step(const std::string& input) override;

  long resets() const override { return resets_; }
  long steps() const override { return steps_; }

 private:
  nas::NasPdu craft(const std::string& input, bool* ue_initiated);
  std::string observe(const std::vector<nas::NasPdu>& responses) const;

  ue::StackProfile profile_;
  std::unique_ptr<ue::UeNas> ue_;

  // Network-side crafting state (what a real network would hold).
  nas::SqnGenerator sqn_gen_;
  Bytes rand_;
  std::uint64_t xres_ = 0;
  std::uint64_t kasme_ = 0;
  bool kasme_known_ = false;
  nas::SecurityContext net_ctx_;
  int guti_serial_ = 0;

  long resets_ = 0;
  long steps_ = 0;
};

}  // namespace procheck::learner
