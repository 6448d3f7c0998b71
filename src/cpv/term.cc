#include "cpv/term.h"

namespace procheck::cpv {

namespace {
const std::vector<Term> kNoArgs;
}

Term Term::name(std::string n) {
  Term t;
  t.symbol_ = std::move(n);
  return t;
}

Term Term::func(std::string fn, std::vector<Term> args) {
  Term t;
  t.symbol_ = std::move(fn);
  t.args_ = std::make_shared<std::vector<Term>>(std::move(args));
  return t;
}

Term Term::pair(Term a, Term b) { return func("pair", {std::move(a), std::move(b)}); }
Term Term::senc(Term m, Term k) { return func("senc", {std::move(m), std::move(k)}); }
Term Term::mac(Term m, Term k) { return func("mac", {std::move(m), std::move(k)}); }

const std::vector<Term>& Term::args() const { return args_ ? *args_ : kNoArgs; }

std::string Term::to_string() const {
  if (is_name()) return symbol_;
  std::string out = symbol_ + "(";
  for (std::size_t i = 0; i < args().size(); ++i) {
    if (i > 0) out += ", ";
    out += args()[i].to_string();
  }
  return out + ")";
}

bool Term::operator==(const Term& other) const {
  if (symbol_ != other.symbol_) return false;
  if (is_name() != other.is_name()) return false;
  if (is_name()) return true;
  return args() == other.args();
}

bool Term::operator<(const Term& other) const {
  if (symbol_ != other.symbol_) return symbol_ < other.symbol_;
  if (is_name() != other.is_name()) return is_name() < other.is_name();
  return args() < other.args();
}

}  // namespace procheck::cpv
