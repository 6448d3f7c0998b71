#include "cpv/knowledge.h"

#include <vector>

namespace procheck::cpv {

void Knowledge::learn(Term term) {
  if (!analyzed_.insert(std::move(term)).second) return;
  // Analysis to fixpoint: the new term may open earlier ones (as a key) and
  // earlier ones may open it, so every pass rescans the whole set.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Term> to_add;
    for (const Term& t : analyzed_) {
      if (t.is_name()) continue;
      if (t.symbol() == "pair") {
        to_add.insert(to_add.end(), t.args().begin(), t.args().end());
      } else if (t.symbol() == "senc" && t.args().size() == 2 && derivable(t.args()[1])) {
        to_add.push_back(t.args()[0]);
      }
      // mac/kdf: one-way, nothing to decompose.
    }
    for (Term& t : to_add) {
      changed = analyzed_.insert(std::move(t)).second || changed;
    }
  }
}

bool Knowledge::derivable(const Term& t) const {
  // Synthesis: t is derivable if it is in the analyzed set, or it is a
  // constructor application whose arguments are all derivable.
  if (analyzed_.count(t) > 0) return true;
  if (t.is_name()) return false;
  for (const Term& a : t.args()) {
    if (!derivable(a)) return false;
  }
  return true;
}

}  // namespace procheck::cpv
