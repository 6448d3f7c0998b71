#include "cpv/lte_crypto.h"

#include "common/strings.h"
#include "nas/sqn.h"

namespace procheck::cpv {

namespace {

bool has_atom(const mc::CommandMeta& m, const std::string& a) { return m.atoms.count(a) > 0; }

/// Atoms asserting that a cryptographic check *passed* on the consumed
/// message. A fabricated message can only satisfy them if the attacker can
/// derive the corresponding term.
bool claims_integrity(const mc::CommandMeta& m) {
  if (has_atom(m, "mac_valid=1") || has_atom(m, "integrity_ok=1") ||
      has_atom(m, "res_valid=1") || has_atom(m, "sqn_ok=1")) {
    return true;
  }
  // Messages consumed through a protected security header passed NAS-MAC
  // verification even when the handler logged no explicit mac_valid local.
  for (const std::string& a : m.atoms) {
    if (starts_with(a, "sec_hdr=") && a != "sec_hdr=plain_nas") return true;
  }
  return false;
}

}  // namespace

LteCryptoModel::LteCryptoModel(Options options) : options_(options) {
  // Attacker's initial knowledge: the public message vocabulary (PDU
  // skeletons, identities observable in clear, algorithm ids) — but none of
  // the key hierarchy.
  knowledge_.learn_public("nas_pdu_skeleton");
  knowledge_.learn_public("imsi_broadcast_format");
  knowledge_.learn_public("guti_observed");
  knowledge_.learn_public("algorithm_ids");
}

bool LteCryptoModel::stale_sqn_accepted() const {
  // Decide by running the real Annex C implementation: issue a window of
  // fresh vectors, capture an early one, let later ones be consumed, then
  // replay the captured (now stale) SQN. Without the freshness limit L the
  // stale SQN lands in an SQN-array slot whose SEQ is older — accepted.
  nas::UsimConfig cfg;
  if (options_.usim_freshness_limit) cfg.freshness_limit = 1;
  nas::Usim usim(/*permanent_key=*/0x5EC2E7, cfg);
  nas::SqnGenerator gen;

  auto make_challenge = [&](nas::Sqn sqn) {
    Bytes rand{0x01, 0x02, 0x03, 0x04};
    rand.push_back(static_cast<std::uint8_t>(sqn.seq & 0xFF));
    nas::Autn autn;
    autn.sqn_xor_ak = (sqn.value() ^ nas::f5_ak(usim.permanent_key(), rand)) & nas::kSqnMask;
    autn.amf = 0x8000;
    autn.mac = nas::f1_mac(usim.permanent_key(), sqn.value(), rand, autn.amf);
    return std::make_pair(rand, autn.encode());
  };

  // The adversary captures-and-drops challenge #1; challenges #2..#4 are
  // consumed normally (advancing other SQN-array slots); #1 is replayed.
  nas::Sqn captured = gen.next();
  auto captured_challenge = make_challenge(captured);
  for (int i = 0; i < 3; ++i) {
    auto [rand, autn] = make_challenge(gen.next());
    if (usim.authenticate(rand, autn).result != nas::Usim::Result::kOk) return false;
  }
  auto replay = usim.authenticate(captured_challenge.first, captured_challenge.second);
  return replay.result == nas::Usim::Result::kOk;
}

StepVerdict LteCryptoModel::judge_delivery(const mc::CommandMeta& step) const {
  if (step.kind != mc::CommandMeta::Kind::kDeliver &&
      step.kind != mc::CommandMeta::Kind::kInternal) {
    // Channel placements and drops are always within Dolev–Yao power.
    return {true, "adversary channel action"};
  }
  if (step.provenance == mc::kProvGenuine || step.kind == mc::CommandMeta::Kind::kInternal) {
    return {true, "genuine message"};
  }

  if (step.provenance == mc::kProvFabricated) {
    if (claims_integrity(step)) {
      // The consuming transition requires a term the attacker cannot build:
      // mac(payload, k) for a key outside the saturated knowledge.
      Term payload = Term::name("payload_" + step.message);
      Term required = Term::mac(payload, Term::name("k_nas_int"));
      if (step.message == "authentication_request") {
        required = Term::mac(payload, Term::name("k_permanent"));
      }
      if (!knowledge_.derivable(required)) {
        return {false,
                "fabricated " + step.message + " requires underivable " + required.to_string()};
      }
    }
    return {true, "fabricated plaintext message is derivable"};
  }

  // Replayed: the recorded message carries a valid MAC by construction.
  if (step.provenance == mc::kProvReplayed) {
    if (has_atom(step, "res_valid=1")) {
      // RES is bound to the fresh RAND of the outstanding challenge; a
      // response recorded under an earlier challenge cannot verify.
      return {false, "replayed RES is bound to a stale RAND challenge"};
    }
    if (step.message == "authentication_request" && has_atom(step, "sqn_ok=1")) {
      if (has_atom(step, "counter_reset=1")) {
        // Equal-SQN acceptance is the implementation's own (logged)
        // behavior; the replayed MAC is valid, so the step is realizable.
        return {true, "implementation accepts equal SQN (I3 deviation)"};
      }
      if (stale_sqn_accepted()) {
        return {true, "stale SQN accepted by TS 33.102 Annex C array (no freshness limit)"};
      }
      return {false, "USIM freshness limit rejects the stale SQN"};
    }
    return {true, "replayed message carries a valid MAC"};
  }

  return {false, "unknown provenance"};
}

EquivalenceVerdict LteCryptoModel::distinguishability(const fsm::Fsm& ue_fsm,
                                                      const std::string& message,
                                                      const std::set<fsm::Atom>& victim_atoms) const {
  EquivalenceVerdict v;
  // A response can only link the victim if the branch it takes depends on
  // victim-specific secret state (its key, its SQN window, its identity,
  // its session). A plain message every UE handles identically (e.g. a
  // fabricated detach_request) makes every UE a "victim" — responses are
  // uniform across devices and nothing is linkable.
  static const std::set<std::string> kVictimSpecific = {
      "sqn_ok=1",  "sqn_ok=0",        "smc_replay=1", "counter_reset=1",
      "mac_valid=1", "identity_match=1", "replay_accepted=1"};
  bool victim_specific = false;
  for (const fsm::Atom& a : victim_atoms) {
    victim_specific = victim_specific || kVictimSpecific.count(a) > 0;
  }
  if (!victim_specific) {
    v.reason = "response does not depend on victim-specific state; all UEs behave alike";
    return v;
  }

  // Observable response of a transition: its actions plus any logged
  // failure-cause discriminator (cause values are visible on the wire).
  auto observable = [](const fsm::Transition& t) {
    std::set<std::string> obs(t.actions.begin(), t.actions.end());
    for (const fsm::Atom& a : t.conditions) {
      if (starts_with(a, "failure_cause=")) obs.insert(a);
    }
    return obs;
  };

  // Victim branch: transitions carrying all victim atoms. Other UEs fail
  // the cryptographic check on the same message (wrong key): mac_valid=0.
  std::set<std::string> victim_obs;
  std::set<std::string> other_obs;
  for (const fsm::Transition& t : ue_fsm.transitions()) {
    if (t.conditions.count(message) == 0) continue;
    bool is_victim = true;
    for (const fsm::Atom& a : victim_atoms) {
      is_victim = is_victim && t.conditions.count(a) > 0;
    }
    if (is_victim) {
      auto obs = observable(t);
      victim_obs.insert(obs.begin(), obs.end());
    }
    if (t.conditions.count("mac_valid=0") > 0) {
      auto obs = observable(t);
      other_obs.insert(obs.begin(), obs.end());
    }
  }
  if (victim_obs.empty()) {
    v.reason = "no victim-branch transition for " + message;
    return v;
  }
  if (other_obs.empty()) other_obs.insert(fsm::kNullAction);
  victim_obs.erase(fsm::kNullAction);
  if (victim_obs.empty()) victim_obs.insert(fsm::kNullAction);

  v.victim_response =
      join(std::vector<std::string>(victim_obs.begin(), victim_obs.end()), ",");
  v.other_response = join(std::vector<std::string>(other_obs.begin(), other_obs.end()), ",");
  v.distinguishable = victim_obs != other_obs;
  v.reason = v.distinguishable ? "victim responds {" + v.victim_response + "} vs others {" +
                                     v.other_response + "}"
                               : "responses are observationally equivalent";
  return v;
}

}  // namespace procheck::cpv
