// LTE-instantiated cryptographic judgments — what the paper queries ProVerif
// for inside the CEGAR loop (§IV-B): given one step of a model-checker
// counterexample, does it conform to the cryptographic assumptions?
//
// Judgments are made at the *consumption* point: a counterexample step where
// a protocol entity consumes a message with non-genuine provenance. The
// fabricated case reduces to Dolev–Yao derivability of the message term the
// consuming transition requires (a fabricated integrity-protected message
// needs mac(payload, k_nas_int), and k_nas_int is not derivable). The
// replayed case reduces to (a) MAC validity — true by construction for
// replays — and (b) for authentication_request, whether a stale SQN passes
// the USIM's TS 33.102 Annex C check, which is decided by *running the real
// USIM implementation* (nas::Usim) on a replay scenario.
#pragma once

#include <set>
#include <string>

#include "cpv/knowledge.h"
#include "fsm/fsm.h"
#include "mc/model.h"

namespace procheck::cpv {

struct StepVerdict {
  bool feasible = false;
  std::string reason;
};

struct EquivalenceVerdict {
  bool distinguishable = false;
  /// Response of the targeted (victim) UE vs. any other UE, when they differ.
  std::string victim_response;
  std::string other_response;
  std::string reason;
};

class LteCryptoModel {
 public:
  struct Options {
    /// TS 33.102 Annex C.2.2 freshness limit L implemented in the USIM
    /// (the optional mitigation; COTS default is false — the P1/P2 root
    /// cause).
    bool usim_freshness_limit;
    Options() : usim_freshness_limit(false) {}
  };

  explicit LteCryptoModel(Options options = Options());

  /// Judges a counterexample step that consumes a message of non-genuine
  /// provenance (mc::CommandMeta::Kind::kDeliver with provenance replayed or
  /// fabricated). Genuine deliveries and pure adversary channel actions
  /// (drop/inject/replay placements) are trivially feasible.
  StepVerdict judge_delivery(const mc::CommandMeta& step) const;

  /// Observational equivalence: can an observer distinguish the victim UE
  /// from other UEs by their responses to a replayed/fabricated `message`?
  /// Decided over the extracted FSM: collect the response action sets of
  /// all transitions conditioned on `message`; the victim follows the
  /// success branch (the counterexample's transition), any other UE follows
  /// a failure branch. Distinguishable iff the action sets differ.
  EquivalenceVerdict distinguishability(const fsm::Fsm& ue_fsm, const std::string& message,
                                        const std::set<fsm::Atom>& victim_atoms) const;

  /// Exposes the Annex C decision (used directly and by tests): does a
  /// USIM accept a *stale, previously-issued* SQN (an out-of-order replay)?
  bool stale_sqn_accepted() const;
  /// Does a USIM accept the *same* SQN twice (equal SEQ)? Only under the
  /// I3 deviation; parameterized because it is implementation behavior.
  static bool equal_sqn_accepted(bool accept_equal_deviation);

  const Knowledge& attacker_knowledge() const { return knowledge_; }

 private:
  Options options_;
  Knowledge knowledge_;  // public vocabulary only — no session keys
};

}  // namespace procheck::cpv
