// Dolev–Yao term algebra for the cryptographic protocol verifier.
//
// Terms are names (atomic secrets/nonces/constants) or function
// applications (pair, senc, mac, kdf, ...). The Knowledge engine saturates
// an attacker's knowledge set under the standard Dolev–Yao rules and
// answers derivability queries — the judgment ProVerif provides in the
// paper's CEGAR loop ("is this adversary step feasible?").
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace procheck::cpv {

class Term {
 public:
  /// Atomic name ("k_nas_int", "rand_1", "guti").
  static Term name(std::string n);
  /// Function application: pair(a,b), senc(m,k), mac(m,k), kdf(k,x), ...
  static Term func(std::string fn, std::vector<Term> args);

  // Convenience constructors for the vocabulary used by the LTE model.
  static Term pair(Term a, Term b);
  static Term senc(Term m, Term k);  // symmetric encryption
  static Term mac(Term m, Term k);   // message authentication code

  bool is_name() const { return args_ == nullptr; }
  const std::string& symbol() const { return symbol_; }  // name or function symbol
  const std::vector<Term>& args() const;

  std::string to_string() const;
  bool operator==(const Term& other) const;
  bool operator<(const Term& other) const;  // structural order (for sets)

 private:
  std::string symbol_;
  std::shared_ptr<std::vector<Term>> args_;  // null for names
};

}  // namespace procheck::cpv
