// Explicit-state checker over mc::Model: never-claims on edges and response
// liveness (G(trigger → F response)) with counterexample traces — the two
// property shapes of the paper's catalog, which nuXmv checks there.
//
// Like nuXmv computing a model's reachable set once for all of its specs,
// the model is explored once into a ReachGraph and every property is a
// traversal of that graph (DESIGN.md §10). The CEGAR loop's "property
// refinement" is the `banned` command table in CheckOptions: adversary
// actions the cryptographic verifier adjudicated infeasible are pruned from
// the next traversal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mc/model.h"

namespace procheck::mc {

struct TraceStep {
  std::string label;
  CommandMeta meta;
  State post;
};

/// A trace of the model. The CEGAR loop (checker/cegar.h) submits every
/// step to the cryptographic verifier, which decides which of them could be
/// infeasible.
struct CounterExample {
  std::vector<TraceStep> steps;  // from the initial state
  /// For liveness violations, index into `steps` where the lasso loop
  /// begins; -1 for finite safety traces.
  int loop_start = -1;

  std::string render(const Model& model) const;
  /// Graphviz rendering of the trace as a message-sequence-like chain
  /// (adversary steps highlighted; the lasso loop marked).
  std::string to_dot(const Model& model) const;
};

/// What a build or a traversal read. A traversal counts only what its
/// search read: a never-claim settled without a walk reports 0 states, 0
/// edges and 0 bytes, and a lasso counts the product nodes it created.
struct CheckStats {
  std::size_t states_explored = 0;
  std::size_t edges_explored = 0;
  /// Bytes held by the search's own structures at the end: for a graph
  /// build, the graph as retained; for a traversal, its visited-set and
  /// parent bookkeeping (not the shared graph). Growth is monotonic, so this
  /// is also the peak.
  std::size_t visited_bytes = 0;
  double seconds = 0.0;
  /// A graph build stopped at max_states, or a traversal took an edge to a
  /// state that build left out.
  bool bound_hit = false;
  bool deadline_hit = false;  // exploration stopped at max_seconds
  bool mem_hit = false;       // exploration stopped at max_visited_bytes

  /// True when the search stopped early: absence of a counterexample then
  /// means "not found within budget", not "verified".
  bool truncated() const { return bound_hit || deadline_hit || mem_hit; }
};

/// Edge predicate over (pre-state, command, post-state).
using EdgePred = std::function<bool(const State&, const Command&, const State&)>;

/// An edge predicate in the form a graph traversal evaluates without
/// materializing states: a per-command table plus pre-state equalities, all
/// of which must hold. checker::MetaMatch compiles to this. A traversal
/// compiles the equalities once into one masked compare of the packed state
/// key, read only for edges whose command the table admits. It refuses
/// (std::invalid_argument) a match that does not fit its model: a table size
/// other than the command count, or an equality on a missing variable or
/// with a value outside the variable's domain.
struct EdgeMatch {
  std::vector<std::uint8_t> commands;                    // by command index
  std::vector<std::pair<int, std::int32_t>> pre_equals;  // var == value
};

/// The state cap every budget layer defaults to (CheckOptions, CegarOptions,
/// AnalysisOptions, TriageOptions). It bounds the graph build, and so every
/// traversal of the graph. The largest graph on any profile is srsue's
/// (552 536 states), so no default-budget build truncates.
inline constexpr std::size_t kDefaultMaxStates = 2'000'000;

struct CheckOptions {
  /// States a graph build keeps (ReachGraph::build reads it, and nothing
  /// else does). A traversal is bounded by its graph: it discovers no state
  /// the graph lacks.
  std::size_t max_states = kDefaultMaxStates;
  /// Wall-clock budget in seconds; 0 = unbounded. Exploration stops (with
  /// stats->deadline_hit) once exceeded — a guardrail, not a fairness bound.
  double max_seconds = 0.0;
  /// Approximate memory ceiling over the search's structures (the quantity
  /// reported as CheckStats::visited_bytes); 0 = unbounded. Polled
  /// cooperatively once per dequeued state, so the real footprint can
  /// overshoot by one poll interval — a supervisor guardrail against OOM,
  /// not an allocator limit.
  std::size_t max_visited_bytes = 0;
  /// CEGAR refinement of the threat model: edges of commands whose entry is
  /// nonzero are pruned. Empty = nothing banned; otherwise one entry per
  /// command, by command index (a traversal throws std::invalid_argument on
  /// any other size).
  std::vector<std::uint8_t> banned;
};

/// Where each variable of a model sits in a packed state key (checker.cc).
class KeyLayout;

/// The reachable states and transitions of a Model, explored once
/// breadth-first and then shared read-only by every property check. Each
/// state is stored as one packed 64-bit key (DESIGN.md §10), in discovery
/// order (id 0 is the initial state); the out-edges (target, command) of
/// each expanded state are stored in command order, so a FIFO traversal
/// that scans them in order meets states, parents and the first bad edge
/// exactly as a breadth-first search of the model would.
class ReachGraph {
 public:
  /// Target of an edge whose post-state the build's state cap rejected.
  static constexpr std::uint32_t kMissing = 0xFFFFFFFFu;

  ReachGraph() = default;  // empty: no model, no states

  /// Explores `model` under the budgets in `options` (max_states,
  /// max_seconds, max_visited_bytes; `banned` is ignored). The
  /// graph refers to `model`, which must outlive it at the same address.
  /// A budget stop truncates the graph: stats().truncated() is set, and a
  /// traversal that reaches a state or edge the build left out reports that
  /// budget instead of a verdict. Refuses (std::length_error) a model with
  /// more than 65 536 commands or whose states need more than 64 bits, and
  /// (std::invalid_argument) one whose states could leave their domains.
  static ReachGraph build(const Model& model, const CheckOptions& options = {});

  const Model& model() const { return *model_; }
  /// The build's figures: states, edges, retained bytes, seconds, truncation.
  const CheckStats& stats() const { return stats_; }
  std::size_t states() const { return stats_.states_explored; }
  std::size_t edges() const { return targets_.size(); }
  /// States whose out-edges are stored: ids [0, expanded()). All of them
  /// unless a deadline or memory ceiling stopped the build.
  std::size_t expanded() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  /// Out-edges of an expanded state: indices [edge_begin, edge_end).
  std::size_t edge_begin(std::uint32_t id) const { return offsets_[id]; }
  std::size_t edge_end(std::uint32_t id) const { return offsets_[id + 1]; }
  std::uint32_t target(std::size_t edge) const { return targets_[edge]; }
  std::size_t command(std::size_t edge) const { return commands_[edge]; }
  /// The state with id `id`, unpacked from its key.
  State state(std::uint32_t id) const;
  /// The post-state of `edge` out of state `id` (recomputed from the
  /// command when the target is kMissing).
  State post(std::uint32_t id, std::size_t edge) const;

  /// "bad edge never fires" — returns a finite trace ending with the edge.
  /// Both traversals read the options' deadline, memory ceiling and bans;
  /// the graph itself is their only state bound (max_states is not read).
  /// On a complete graph (stats() not truncated) the claim is first settled
  /// without a walk when no allowed edge matches anywhere in the graph:
  /// after one deadline poll, the per-command table of fired commands and,
  /// for a match with pre-state equalities, one scan of the stored edges
  /// decide it. A settled claim reports no counterexample with 0 states, 0
  /// edges and 0 bytes; every other claim walks breadth-first.
  std::optional<CounterExample> check_edge_never(const EdgeMatch& bad, CheckStats* stats,
                                                 const CheckOptions& options = {}) const;

  /// G(trigger → F response) over edges — returns a lasso trace on which a
  /// trigger fires and the loop never answers it. Deadlocked states stutter.
  /// Its (state, pending) product holds at most two nodes per graph state.
  std::optional<CounterExample> check_response(const EdgeMatch& trigger,
                                               const EdgeMatch& response, CheckStats* stats,
                                               const CheckOptions& options = {}) const;

 private:
  const Model* model_ = nullptr;
  std::shared_ptr<const KeyLayout> layout_;  // immutable: copies share it
  std::vector<std::uint64_t> keys_;      // per state, in id order: its packed key
  std::vector<std::uint32_t> offsets_;   // expanded() + 1 CSR offsets
  std::vector<std::uint32_t> targets_;   // per edge: state id or kMissing
  std::vector<std::uint16_t> commands_;  // per edge: command index
  std::vector<std::uint8_t> fired_;      // per command: 1 when a stored edge carries it
  CheckStats stats_;
};

/// The one-call never-claim that perfbench's traced pass times: it builds a
/// ReachGraph under the options' budgets, then runs one traversal that
/// tests `bad` on the materialized pre- and post-states of each edge.
/// `stats` covers both (seconds and bytes include the build). Properties
/// are checked as ReachGraph traversals with EdgeMatches instead.
class Checker {
 public:
  explicit Checker(const Model& model) : model_(model) {}

  /// "bad edge never fires" — returns a finite trace ending with the edge.
  std::optional<CounterExample> check_edge_never(const EdgePred& bad, CheckStats* stats,
                                                 const CheckOptions& options = {}) const;

 private:
  const Model& model_;
};

}  // namespace procheck::mc
