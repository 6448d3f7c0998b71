// Adversarial model instrumentor (paper §IV-B / §VI "Adversarial model
// instrumentor"): takes the two extracted/manual FSMs UE^μ and MME^μ and
// produces the threat-instrumented model IMP^μ as an mc::Model.
//
// Composition: two unidirectional single-slot channels (c1 uplink UE→MME,
// c2 downlink MME→UE). Each in-flight message carries a *provenance* tag —
// genuine, replayed, or fabricated — which is how the Dolev–Yao adversary
// is folded into the state space:
//   * drop     — remove the in-flight message from either channel;
//   * inject   — place any protocol message with provenance=fabricated;
//   * replay   — place any message the protocol genuinely transmits
//                (present or past sessions) with provenance=replayed;
//   * modify   — expressible as drop + inject.
//
// FSM conditions are split into the incoming-message atom, internal-trigger
// atoms (*_trigger), and predicate atoms ("mac_valid=1"). Two predicate
// atoms have *structural* meaning the composer encodes directly (counter
// monotonicity is not a cryptographic question):
//   * count_ok=1        — the NAS COUNT was fresh: impossible on a replay;
//   * replay_accepted=1 / smc_replay=1 / counter_reset=1 — the
//     implementation processed a stale COUNT: requires provenance=replayed.
// All *cryptographic* feasibility (can a fabricated message carry a valid
// MAC? can a replayed authentication_request pass the USIM's SQN check?) is
// deliberately NOT encoded here — the model is optimistic, and the CPV
// prunes infeasible counterexamples in the CEGAR loop (cpv/, checker/).
//
// The composer also maintains two vocabulary-driven indicator flags used by
// authentication-bypass properties: flag_auth / flag_smc are set when the UE
// emits authentication_response / security_mode_complete and reset when it
// emits a fresh attach_request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fsm/fsm.h"
#include "mc/model.h"

namespace procheck::threat {

/// The compiled threat model plus the variable handles and alphabets the
/// property layer needs.
struct ThreatModel {
  mc::Model model;

  int ue_state = -1;
  int mme_state = -1;
  int chan_dl = -1;       // message on c2 (0 = none)
  int chan_dl_prov = -1;  // Provenance of the c2 message
  int chan_ul = -1;
  int chan_ul_prov = -1;
  int flag_auth = -1;  // UE completed AKA since its last attach_request
  int flag_smc = -1;   // UE completed SMC since its last attach_request
  /// UE currently holds a valid NAS security context (set on SMC complete,
  /// cleared on context-deleting transitions). Drives chan_ul_protected.
  int flag_ctx = -1;
  /// MME-side context flag (set when the MME issues security_mode_command,
  /// cleared on context-deleting events). Drives chan_dl_protected.
  int flag_mme_ctx = -1;
  /// Whether the in-flight downlink message is integrity-protected. Genuine
  /// MME sends derive it from flag_mme_ctx (paging stays plain; SMC is
  /// protected with the fresh keys); adversarial placements are free. A
  /// *genuine* delivery can only fire a transition whose sec_hdr atom
  /// matches this bit — a legitimate network never sends protected-mandatory
  /// messages in plaintext.
  int chan_dl_protected = -1;
  /// Whether the in-flight uplink message is integrity-protected. Genuine
  /// UE sends copy flag_ctx; adversary placements claim protection (the CPV
  /// prunes unforgeable claims). MME transitions requiring integrity_ok=1
  /// are guarded on this bit — an integrity-verified message must actually
  /// have been protected by a key holder.
  int chan_ul_protected = -1;

  std::vector<std::string> dl_alphabet;  // [0] = "none"
  std::vector<std::string> ul_alphabet;

  std::int32_t dl_index(const std::string& msg) const;
  std::int32_t ul_index(const std::string& msg) const;
  std::int32_t ue_state_index(const std::string& name) const;
  std::int32_t mme_state_index(const std::string& name) const;
};

/// Splits a transition's condition set: returns the incoming-message atom
/// (or the internal trigger atom), with predicates in `predicates`.
struct ConditionSplit {
  std::string message;  // empty if none found
  bool is_trigger = false;
  std::vector<std::string> predicates;
};
ConditionSplit split_conditions(const std::set<fsm::Atom>& conditions);

/// Atoms marking a transition that tolerates a stale NAS COUNT — the only
/// transitions a *session-protected* replay can structurally drive. These
/// are the predicate atoms with structural meaning to the composer (see the
/// header comment); the diff triage layer also treats them as implementation-
/// deviation indicators.
bool is_replay_tolerant_atom(const std::string& atom);

/// The metadata compose() stamps on the commands of one `actor` transition:
/// one kInternal meta for a trigger or τ transition, and one kDeliver meta
/// per admissible provenance for a received-message transition. The diff
/// triage layer matches properties against diverging edges through it.
std::vector<mc::CommandMeta> transition_metas(const fsm::Transition& t,
                                              mc::CommandMeta::Actor actor);

/// Builds IMP^μ from the two machines, with the adversary in control of
/// both channels.
ThreatModel compose(const fsm::Fsm& ue_fsm, const fsm::Fsm& mme_fsm);

}  // namespace procheck::threat
