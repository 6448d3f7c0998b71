// Differential cross-implementation analysis (DESIGN.md §16): given two
// deterministic Mealy FSMs — extracted checking models, in-process learned
// machines, or machines learned from live remote SULs — enumerate their
// behavioral divergences with a minimal distinguishing input sequence each.
//
// The engine walks the product automaton breadth-first from the pair of
// initial states. An input symbol is the canonical rendering of a full
// transition condition set ("attach_accept & mac_valid=1 & ..."), so the two
// machines are compared over the union of their condition alphabets. At each
// reachable pair, the enabled condition sets are compared in sorted order:
//
//   * both enabled, different actions  -> kOutputMismatch
//   * enabled on the left only         -> kMissingRight (right can't follow)
//   * enabled on the right only        -> kMissingLeft
//   * a state never visited by any
//     product pair                     -> kExtraState{Left,Right}
//
// BFS layer order plus sorted expansion makes every distinguishing sequence
// minimal and lexicographically least among minimal ones, so the report is
// canonical: byte-identical across runs and --jobs levels. Divergence triage
// against the property catalog lives in diff/triage.h; report JSON codec in
// diff/report_json.h; side acquisition (profile/log/learn/remote) in
// diff/sources.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fsm/fsm.h"

namespace procheck::diff {

/// One side of a differential comparison: a deterministic FSM plus the
/// display name used in reports ("cls", "log:trace.log", "remote:host:p").
struct Side {
  std::string name;
  fsm::Fsm machine;
};

enum class DivergenceKind : std::uint8_t {
  kOutputMismatch,  // input enabled on both sides with different actions
  kMissingLeft,     // input enabled on the right side only
  kMissingRight,    // input enabled on the left side only
  kExtraStateLeft,  // left state unreachable in lockstep (diverging paths only)
  kExtraStateRight,
};

std::string_view to_string(DivergenceKind k);

struct Divergence {
  DivergenceKind kind = DivergenceKind::kOutputMismatch;
  /// Canonical "a & b & c" rendering of the diverging condition set; for
  /// extra-state divergences, the unpaired state's name.
  std::string input;
  /// Minimal distinguishing input sequence: condition sets driving both
  /// machines from their initial states to the diverging pair, ending with
  /// `input` (for extra states: the shortest path in the owning machine).
  std::vector<std::string> sequence;
  std::string left_state;  // product pair where the divergence fires
  std::string right_state;
  std::string left_edge;  // full transition label, or "-" when absent
  std::string right_edge;
  /// Catalog property ids attached by triage (empty = behavioral-only).
  std::vector<std::string> properties;

  bool operator==(const Divergence&) const = default;
};

/// Triage classification of one candidate catalog property (diff/triage.h).
struct Finding {
  enum class Class : std::uint8_t {
    kDivergent,     // MC verdicts differ: one side violates the property
    kCommon,        // both sides violate (shared deviation, e.g. I6/P1)
    kInconclusive,  // a side's verification tripped a watchdog/budget
  };

  std::string property_id;
  std::string attack_id;  // Table I row ("" when the property carries none)
  Class cls = Class::kDivergent;
  /// "left" / "right" (the violating side) for divergent findings, "both"
  /// for common ones, "" for inconclusive.
  std::string violates;
  std::string left_status;  // verdict tokens: verified/attack/not_applicable/inconclusive
  std::string right_status;
  std::string note;

  bool operator==(const Finding&) const = default;
};

std::string_view to_string(Finding::Class c);

/// One lockstep transition of the product walk ("L | R" pair names): the
/// skeleton the --dot rendering draws, with divergences highlighted on top.
struct ProductEdge {
  std::string from;
  std::string to;
  std::string input;

  bool operator==(const ProductEdge&) const = default;
};

struct DiffReport {
  std::string left_name;
  std::string right_name;
  bool equivalent = false;
  /// The comparison itself could not complete (nondeterministic input
  /// machine, walk cap tripped, side unavailable): divergence/finding lists
  /// are partial at best and `note` names the cause.
  bool inconclusive = false;
  std::string note;
  std::size_t product_pairs = 0;  // product states visited by the walk
  std::vector<ProductEdge> edges;  // lockstep transitions, discovery order
  std::vector<Divergence> divergences;
  std::vector<Finding> findings;

  /// CLI contract: 0 equivalent, 1 divergent, 3 inconclusive.
  int exit_code() const;
  /// Deterministic text rendering (stable across runs and jobs levels).
  std::string render() const;
  /// Divergence-highlighted product graph: lockstep pairs as nodes, shared
  /// transitions as solid edges, divergences in red (missing sides dashed).
  std::string to_dot(const std::string& name = "diff") const;

  bool operator==(const DiffReport&) const = default;
};

struct DiffOptions {
  /// Walk cap: a pathological pair degrades to a structured inconclusive
  /// report instead of an unbounded product exploration.
  std::size_t max_product_pairs = 1 << 16;
};

/// Canonical " & "-joined rendering of a condition set — the product walk's
/// input-symbol alphabet (exposed for tests and the triage layer).
std::string input_key(const std::set<fsm::Atom>& conditions);

/// Product-automaton BFS over the two machines. Both sides must be
/// deterministic; a nondeterministic side yields an inconclusive report.
DiffReport diff_machines(const Side& left, const Side& right,
                         const DiffOptions& options = {});

}  // namespace procheck::diff
