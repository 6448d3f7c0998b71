#include "mc/model.h"

namespace procheck::mc {

Expr Expr::constant(bool v) {
  Expr e;
  e.kind_ = Kind::kConst;
  e.const_value_ = v;
  return e;
}

Expr Expr::eq(int var, std::int32_t value) {
  Expr e;
  e.kind_ = Kind::kEq;
  e.var_ = var;
  e.value_ = value;
  return e;
}

Expr Expr::land(Expr a, Expr b) {
  Expr e;
  e.kind_ = Kind::kAnd;
  e.lhs_ = std::make_shared<Expr>(std::move(a));
  e.rhs_ = std::make_shared<Expr>(std::move(b));
  return e;
}

Expr Expr::lor(Expr a, Expr b) {
  Expr e;
  e.kind_ = Kind::kOr;
  e.lhs_ = std::make_shared<Expr>(std::move(a));
  e.rhs_ = std::make_shared<Expr>(std::move(b));
  return e;
}

Expr Expr::all(std::vector<Expr> exprs) {
  Expr acc = constant(true);
  for (Expr& e : exprs) acc = land(std::move(acc), std::move(e));
  return acc;
}

void Expr::collect_vars(std::vector<int>& out) const {
  switch (kind_) {
    case Kind::kConst:
      return;
    case Kind::kEq:
      out.push_back(var_);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      lhs_->collect_vars(out);
      rhs_->collect_vars(out);
      return;
  }
}

void Expr::conjuncts(std::vector<const Expr*>& out) const {
  if (kind_ != Kind::kAnd) {
    out.push_back(this);
    return;
  }
  lhs_->conjuncts(out);
  rhs_->conjuncts(out);
}

bool Expr::eval(const State& s) const {
  switch (kind_) {
    case Kind::kConst:
      return const_value_;
    case Kind::kEq:
      return s[var_] == value_;
    case Kind::kAnd:
      return lhs_->eval(s) && rhs_->eval(s);
    case Kind::kOr:
      return lhs_->eval(s) || rhs_->eval(s);
  }
  return false;
}

std::string Expr::to_string() const {
  switch (kind_) {
    case Kind::kConst:
      return const_value_ ? "true" : "false";
    case Kind::kEq:
      return "v" + std::to_string(var_) + "=" + std::to_string(value_);
    case Kind::kAnd:
      return "(" + lhs_->to_string() + " & " + rhs_->to_string() + ")";
    case Kind::kOr:
      return "(" + lhs_->to_string() + " | " + rhs_->to_string() + ")";
  }
  return "?";
}

int Model::add_var(const std::string& name, std::int32_t domain, std::int32_t init,
                   std::vector<std::string> value_names) {
  names_.push_back(name);
  domains_.push_back(domain);
  value_names_.push_back(std::move(value_names));
  init_.push_back(init);
  return static_cast<int>(names_.size()) - 1;
}

void Model::add_command(Command cmd) {
  cmd.index = static_cast<std::int32_t>(commands_.size());
  commands_.push_back(std::move(cmd));
}

int Model::var(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Model::value_name(int var, std::int32_t value) const {
  const auto& names = value_names_[var];
  if (value >= 0 && static_cast<std::size_t>(value) < names.size()) return names[value];
  return std::to_string(value);
}

std::int32_t Model::value_index(int var, const std::string& value_name) const {
  const auto& names = value_names_[var];
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == value_name) return static_cast<std::int32_t>(i);
  }
  return -1;
}

void Model::successors(const State& s,
                       const std::function<void(const State&, const Command&)>& fn) const {
  for (const Command& cmd : commands_) {
    if (!cmd.guard.eval(s)) continue;
    State next = s;
    for (const Assign& a : cmd.updates) {
      next[a.var] = a.src >= 0 ? s[a.src] : a.value;
    }
    fn(next, cmd);
  }
}

std::string Model::render_state(const State& s) const {
  std::string out;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += names_[i] + "=" + value_name(static_cast<int>(i), s[i]);
  }
  return out;
}

}  // namespace procheck::mc
