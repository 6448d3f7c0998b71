// Attacker-knowledge engine: saturation + derivability (the core inference
// ProVerif performs for reachability/secrecy queries).
//
// Analysis rules (decomposition, to fixpoint):
//   pair(a, b) ∈ K            ⇒ a ∈ K, b ∈ K
//   senc(m, k) ∈ K, K ⊢ k     ⇒ m ∈ K
// Synthesis rules (composition, on demand):
//   t ∈ K                                     ⇒ K ⊢ t
//   K ⊢ a1..an for constructor f              ⇒ K ⊢ f(a1..an)
// mac/kdf are one-way: they decompose to nothing, and synthesizing them
// requires deriving every argument (including the key).
//
// learn() saturates at once, so derivable() and saturated() only read: a
// const Knowledge is safe to share between threads.
#pragma once

#include <set>
#include <string>

#include "cpv/term.h"

namespace procheck::cpv {

class Knowledge {
 public:
  /// Adds a term to the attacker's knowledge and re-saturates.
  void learn(Term t);
  /// Public constants (message skeletons, identities broadcast in clear)
  /// are names every attacker can produce.
  void learn_public(const std::string& name) { learn(Term::name(name)); }

  /// K ⊢ t — can the attacker derive `t`?
  bool derivable(const Term& t) const;

  /// The saturated (analyzed) knowledge set, for diagnostics.
  const std::set<Term>& saturated() const { return analyzed_; }

 private:
  std::set<Term> analyzed_;
};

}  // namespace procheck::cpv
