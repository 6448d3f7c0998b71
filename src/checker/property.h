// Formal property catalog (paper §VI "Formal property gathering"): 62
// properties — 37 security, 25 privacy — extracted from the conformance
// test suite's informal goals and the TS 24.301 / TS 33.102 requirements,
// phrased over the vocabulary of the threat-instrumented model: command
// metadata (message, provenance, FSM condition atoms, actions, endpoint
// states) and the model's indicator flags.
//
// Each property is either a never-claim on edges ("the UE never consumes a
// replayed authentication challenge that passes the SQN check") or a
// response-liveness claim ("an initiated GUTI reallocation eventually
// completes"). Privacy properties may additionally name an observational-
// equivalence query that the CPV must confirm before a counterexample
// counts as a linkability attack.
//
// `attack_id` ties a property to its Table I row: P1–P3 (new protocol
// attacks), I1–I6 (implementation issues), PR01–PR14 (prior attacks).
// Properties with an empty attack_id are expected to verify on conformant
// implementations.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mc/checker.h"
#include "mc/model.h"

namespace procheck::checker {

/// Declarative matcher over a command's metadata plus optional pre-state
/// variable constraints; compiled to an mc::EdgeMatch against a model.
struct MetaMatch {
  std::optional<mc::CommandMeta::Actor> actor;
  std::optional<mc::CommandMeta::Kind> kind;
  std::string message;                       // "" = any
  std::vector<std::string> atoms_all;        // all must be present
  std::vector<std::string> atoms_none;       // none may be present
  std::vector<std::string> actions_any;      // at least one present (if non-empty)
  std::vector<std::int32_t> provenance_any;  // non-empty = must be one of
  std::vector<std::string> from_states;      // non-empty = must be one of
  std::vector<std::string> to_states;
  std::optional<bool> action_nonnull;        // transition takes a real action
  std::optional<bool> state_changed;         // from_state != to_state
  /// Pre-state constraints: (variable name, value name).
  std::vector<std::pair<std::string, std::string>> pre_equals;

  bool matches_meta(const mc::CommandMeta& m) const;
  mc::EdgeMatch compile(const mc::Model& model) const;
};

struct PropertyDef {
  std::string id;  // "S01".."S37", "P01".."P25"
  std::string description;

  enum class Type { kSecurity, kPrivacy };
  Type type = Type::kSecurity;

  enum class Kind { kEdgeNever, kResponse };
  Kind kind = Kind::kEdgeNever;

  MetaMatch bad;       // kEdgeNever: this edge must never fire
  MetaMatch trigger;   // kResponse
  MetaMatch response;  // kResponse

  /// Non-empty for linkability properties: the CPV must confirm the victim's
  /// response to this message is distinguishable from other UEs'.
  std::string equivalence_message;
  std::set<std::string> equivalence_victim_atoms;

  /// Applicability: the UE FSM must contain these condition/action atoms,
  /// otherwise the property is reported "not applicable" (the Table I "-"
  /// rows: procedures the analyzed stacks do not implement).
  std::vector<std::string> requires_atoms;

  std::string attack_id;  // Table I mapping; "" = expected to verify
  bool common_with_lteinspector = false;  // Table II membership (14 of these)
};

/// The full 62-property catalog (37 security + 25 privacy).
const std::vector<PropertyDef>& property_catalog();

/// The 14 properties shared with LTEInspector (Table II / Fig. 8).
std::vector<const PropertyDef*> common_properties();

/// Registered-state family helper shared by several property definitions.
const std::vector<std::string>& registered_family();

}  // namespace procheck::checker
