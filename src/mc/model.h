// Symbolic-model kernel: finite-domain variables + guarded commands.
//
// This is the nuXmv stand-in (DESIGN.md §1): the threat instrumentor
// compiles the composed (UE ⊗ MME ⊗ channels ⊗ Dolev–Yao adversary) system
// into a `Model` — an SMV-like description with enumerated variables and
// guarded commands whose guards are equalities joined by and/or — and the
// checker (checker.h) explores it explicitly.
// Commands carry rich metadata (`CommandMeta`) identifying the protocol
// transition or adversary action they encode; properties and the
// cryptographic-feasibility validation are phrased over that metadata.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace procheck::mc {

/// A model state: one value per declared variable, in declaration order.
using State = std::vector<std::int32_t>;

class Model;

/// Boolean expression over a state: a command guard. These operators are
/// the ones threat::compose builds guards from.
class Expr {
 public:
  static Expr constant(bool v);
  /// var == value (value by index into the domain).
  static Expr eq(int var, std::int32_t value);
  static Expr land(Expr a, Expr b);
  static Expr lor(Expr a, Expr b);
  /// Conjunction of a list (empty list = true).
  static Expr all(std::vector<Expr> exprs);

  bool eval(const State& s) const;
  /// Canonical text, variables by index: `v3=1`, `(a & b)`, `(a | b)`,
  /// `true`, `false`.
  std::string to_string() const;

  /// Appends every variable index this expression reads (with repeats).
  void collect_vars(std::vector<int>& out) const;
  /// Appends the top-level conjuncts: the operands of nested `land`s, or
  /// this expression itself when it is not a conjunction.
  void conjuncts(std::vector<const Expr*>& out) const;

 private:
  enum class Kind : std::uint8_t { kConst, kEq, kAnd, kOr };
  Kind kind_ = Kind::kConst;
  bool const_value_ = true;
  int var_ = -1;
  std::int32_t value_ = 0;
  std::shared_ptr<Expr> lhs_, rhs_;
};

/// One state update: dst := constant, or dst := pre-state[src] when src >= 0
/// (all copies read the pre-state; writes apply in order, later wins).
struct Assign {
  int var = -1;
  std::int32_t value = 0;
  int src = -1;
};

/// Metadata identifying what a command models; the property layer and the
/// CPV feasibility checks dispatch on this, so it is the "semantic label"
/// of each step in a counterexample.
struct CommandMeta {
  enum class Actor : std::uint8_t { kUe, kMme, kAdversary };
  enum class Kind : std::uint8_t {
    kDeliver,   // protocol entity consumes an in-flight message (FSM transition)
    kInternal,  // internal-event FSM transition (trigger, timer)
    kDrop,      // adversary removes the in-flight message
    kInject,    // adversary fabricates a message onto an empty channel
    kReplay,    // adversary re-plays a previously transmitted message
  };
  Actor actor = Actor::kUe;
  Kind kind = Kind::kDeliver;
  std::string message;             // message consumed/injected/dropped
  std::set<std::string> atoms;     // FSM-transition condition atoms
  std::set<std::string> actions;   // FSM-transition action atoms
  std::string from_state;
  std::string to_state;
  int provenance = 0;              // Provenance of the consumed message

  bool has_atom(const std::string& a) const { return atoms.count(a) > 0; }
  bool has_action(const std::string& a) const { return actions.count(a) > 0; }
};

struct Command {
  std::string label;
  Expr guard;
  std::vector<Assign> updates;
  CommandMeta meta;
  /// Position within Model::commands(), assigned by Model::add_command.
  /// Lets per-edge predicates be precompiled into per-command lookup tables
  /// (checker/cegar.cc) instead of re-matching metadata on every edge.
  std::int32_t index = -1;
};

/// Message provenance tags on channels (who put the in-flight message there).
enum Provenance : std::int32_t {
  kProvNone = 0,       // channel empty
  kProvGenuine = 1,    // sent by the legitimate entity
  kProvReplayed = 2,   // adversary replayed a previously observed message
  kProvFabricated = 3  // adversary fabricated the message
};

class Model {
 public:
  /// Declares a variable with `domain` values; value names (for traces and
  /// message alphabets) are optional but recommended.
  int add_var(const std::string& name, std::int32_t domain, std::int32_t init,
              std::vector<std::string> value_names = {});
  void add_command(Command cmd);

  int var(const std::string& name) const;  // -1 if absent
  std::int32_t domain(int var) const { return domains_[var]; }
  const std::string& var_name(int var) const { return names_[var]; }
  std::string value_name(int var, std::int32_t value) const;
  /// Index of `value_name` within var's domain; -1 if absent.
  std::int32_t value_index(int var, const std::string& value_name) const;

  State initial() const { return init_; }
  const std::vector<Command>& commands() const { return commands_; }
  std::size_t var_count() const { return names_.size(); }

  /// Calls `fn(post_state, command)` for every enabled command in `s`.
  void successors(const State& s,
                  const std::function<void(const State&, const Command&)>& fn) const;

  /// Human-readable diff-style rendering of a state (for counterexamples).
  std::string render_state(const State& s) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::int32_t> domains_;
  std::vector<std::vector<std::string>> value_names_;
  State init_;
  std::vector<Command> commands_;
};

}  // namespace procheck::mc
