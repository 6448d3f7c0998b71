#include "checker/property.h"

#include <algorithm>

namespace procheck::checker {

using mc::CommandMeta;
using Actor = mc::CommandMeta::Actor;
using Kind = mc::CommandMeta::Kind;

const std::vector<std::string>& registered_family() {
  static const std::vector<std::string> kFamily = {
      "EMM_REGISTERED", "EMM_REGISTERED_NORMAL_SERVICE",
      "EMM_REGISTERED_ATTEMPTING_TO_UPDATE"};
  return kFamily;
}

bool MetaMatch::matches_meta(const CommandMeta& m) const {
  if (actor && m.actor != *actor) return false;
  if (kind && m.kind != *kind) return false;
  if (!message.empty() && m.message != message) return false;
  for (const std::string& a : atoms_all) {
    if (!m.has_atom(a)) return false;
  }
  for (const std::string& a : atoms_none) {
    if (m.has_atom(a)) return false;
  }
  if (!actions_any.empty()) {
    bool any = false;
    for (const std::string& a : actions_any) any = any || m.has_action(a);
    if (!any) return false;
  }
  if (!provenance_any.empty() &&
      std::find(provenance_any.begin(), provenance_any.end(), m.provenance) ==
          provenance_any.end()) {
    return false;
  }
  if (!from_states.empty() &&
      std::find(from_states.begin(), from_states.end(), m.from_state) == from_states.end()) {
    return false;
  }
  if (!to_states.empty() &&
      std::find(to_states.begin(), to_states.end(), m.to_state) == to_states.end()) {
    return false;
  }
  if (action_nonnull) {
    bool has_real = false;
    for (const std::string& a : m.actions) has_real = has_real || a != "null_action";
    if (has_real != *action_nonnull) return false;
  }
  if (state_changed && (m.from_state != m.to_state) != *state_changed) return false;
  return true;
}

mc::EdgeMatch MetaMatch::compile(const mc::Model& model) const {
  // The metadata half of the match depends only on the command, never on
  // the states, so it is decided once per command here rather than once per
  // explored edge (a traversal visits each command hundreds of thousands of
  // times). A constraint naming a variable or value the model lacks never
  // holds: it emits no equality and zeroes the whole command table.
  mc::EdgeMatch out;
  bool resolved = true;
  for (const auto& [var_name, value_name] : pre_equals) {
    const int var = model.var(var_name);
    const std::int32_t value = var >= 0 ? model.value_index(var, value_name) : -1;
    if (value < 0) {
      resolved = false;
      continue;
    }
    out.pre_equals.emplace_back(var, value);
  }
  out.commands.reserve(model.commands().size());
  for (const mc::Command& cmd : model.commands()) {
    out.commands.push_back(resolved && matches_meta(cmd.meta) ? 1 : 0);
  }
  return out;
}

namespace {

MetaMatch ue_deliver(std::string msg, std::vector<std::int32_t> prov = {},
                     std::vector<std::string> atoms = {},
                     std::vector<std::string> actions = {}) {
  MetaMatch m;
  m.actor = Actor::kUe;
  m.kind = Kind::kDeliver;
  m.message = std::move(msg);
  m.provenance_any = std::move(prov);
  m.atoms_all = std::move(atoms);
  m.actions_any = std::move(actions);
  return m;
}

MetaMatch mme_deliver(std::string msg, std::vector<std::int32_t> prov = {},
                      std::vector<std::string> atoms = {},
                      std::vector<std::string> actions = {}) {
  MetaMatch m = ue_deliver(std::move(msg), std::move(prov), std::move(atoms),
                           std::move(actions));
  m.actor = Actor::kMme;
  return m;
}

MetaMatch actor_sends(Actor actor, std::string action) {
  MetaMatch m;
  m.actor = actor;
  m.actions_any = {std::move(action)};
  return m;
}

PropertyDef edge_never(std::string id, std::string description, PropertyDef::Type type,
                       MetaMatch bad, std::string attack_id = "") {
  PropertyDef p;
  p.id = std::move(id);
  p.description = std::move(description);
  p.type = type;
  p.kind = PropertyDef::Kind::kEdgeNever;
  p.bad = std::move(bad);
  p.attack_id = std::move(attack_id);
  return p;
}

PropertyDef response(std::string id, std::string description, PropertyDef::Type type,
                     MetaMatch trigger, MetaMatch resp, std::string attack_id = "") {
  PropertyDef p;
  p.id = std::move(id);
  p.description = std::move(description);
  p.type = type;
  p.kind = PropertyDef::Kind::kResponse;
  p.trigger = std::move(trigger);
  p.response = std::move(resp);
  p.attack_id = std::move(attack_id);
  return p;
}

constexpr auto kSec = PropertyDef::Type::kSecurity;
constexpr auto kPriv = PropertyDef::Type::kPrivacy;
constexpr std::int32_t kRep = mc::kProvReplayed;
constexpr std::int32_t kFab = mc::kProvFabricated;

std::vector<PropertyDef> build_catalog() {
  std::vector<PropertyDef> c;

  // ===== Security properties S01–S37 =====================================

  // S01 [P1] — the paper's flagship: "If the UE is in the registered
  // initiated state, it will get authenticated with an authentication SQN
  // greater than the previously accepted SQN."
  c.push_back(edge_never(
      "S01", "UE never authenticates against a replayed (stale-SQN) authentication_request",
      kSec,
      [] {
        MetaMatch m = ue_deliver("authentication_request", {kRep}, {"sqn_ok=1"});
        m.atoms_none = {"counter_reset=1"};
        return m;
      }(),
      "P1"));

  // S02–S04 [P3] — timer-supervised common procedures must complete.
  c.push_back(response("S02", "An initiated GUTI reallocation eventually completes", kSec,
                       actor_sends(Actor::kMme, "guti_reallocation_command"),
                       mme_deliver("guti_reallocation_complete"), "P3"));
  c.push_back(response("S03",
                       "An initiated configuration update eventually completes (5G-style)",
                       kSec, actor_sends(Actor::kMme, "configuration_update_command"),
                       mme_deliver("configuration_update_complete"), "P3"));
  {
    PropertyDef p = response("S04", "An initiated security mode procedure eventually completes",
                             kSec, actor_sends(Actor::kMme, "security_mode_command"),
                             mme_deliver("security_mode_complete"), "P3");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }

  // S05–S08 [I1–I4] — implementation-issue detectors.
  c.push_back(edge_never("S05",
                         "UE never processes a protected message with a stale NAS COUNT",
                         kSec, ue_deliver("", {}, {"replay_accepted=1"}), "I1"));
  c.push_back(edge_never("S06",
                         "UE never processes plain messages after the security context",
                         kSec, ue_deliver("", {}, {"plain_accepted_after_ctx=1"}), "I2"));
  c.push_back(edge_never("S07", "UE never resets the counter by re-accepting an equal SQN",
                         kSec, ue_deliver("authentication_request", {}, {"counter_reset=1"}),
                         "I3"));
  c.push_back(edge_never(
      "S08", "UE reaches the registered state only after completing security mode control",
      kSec,
      [] {
        MetaMatch m = ue_deliver("attach_accept");
        m.to_states = registered_family();
        m.pre_equals = {{"flag_smc", "0"}};
        return m;
      }(),
      "I4"));

  // S09–S19 — prior attacks (standards-level).
  {
    PropertyDef p = edge_never(
        "S09", "MME initiates authentication only for a UE-originated attach", kSec,
        mme_deliver("attach_request", {kFab, kRep}, {}, {"authentication_request"}), "PR01");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p =
        edge_never("S10", "MME detaches a UE only on an authentic detach_request", kSec,
                   mme_deliver("detach_request", {kFab}), "PR02");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never("S11", "UE acts only on paging from the serving network",
                               kSec, ue_deliver("paging", {kFab}), "PR03");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never(
        "S12", "Attach requests cannot be relayed to authenticate a remote victim", kSec,
        mme_deliver("attach_request", {kRep}), "PR07");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never("S13", "UE deregisters only on an authentic service_reject",
                               kSec, ue_deliver("service_reject", {kFab}), "PR08");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never("S14", "UE deregisters only on an authentic attach_reject",
                               kSec, ue_deliver("attach_reject", {kFab}), "PR10");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never(
        "S15", "UE detaches only on an integrity-protected detach_request", kSec,
        ue_deliver("detach_request", {kFab}, {"sec_hdr=plain_nas"}), "PR12");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never("S16", "UE abandons TAU only on an authentic reject", kSec,
                               ue_deliver("tracking_area_update_reject", {kFab}), "PR13");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never(
        "S17", "tracking_area_update_reject cannot downgrade the RAT", kSec,
        ue_deliver("tracking_area_update_reject", {kFab}, {"cause=rat_downgrade"}), "PR09");
    p.requires_atoms = {"cause=rat_downgrade"};
    c.push_back(std::move(p));
  }
  c.push_back(edge_never("S18", "Fabricated paging cannot hijack the service response", kSec,
                         ue_deliver("paging", {kFab}, {}, {"service_request"}), "PR11"));
  c.push_back(edge_never("S19", "UE deregisters only on an authentic authentication_reject",
                         kSec, ue_deliver("authentication_reject", {kFab}), "PR10"));

  // S20–S33 — integrity/authenticity invariants expected to verify.
  c.push_back(edge_never("S20", "UE never accepts a fabricated attach_accept", kSec,
                         ue_deliver("attach_accept", {kFab})));
  c.push_back(edge_never("S21", "UE never accepts a fabricated security_mode_command", kSec,
                         ue_deliver("security_mode_command", {kFab}, {"mac_valid=1"})));
  c.push_back(edge_never(
      "S22", "UE never accepts a fabricated protected guti_reallocation_command", kSec,
      ue_deliver("guti_reallocation_command", {kFab},
                 {"sec_hdr=integrity_protected_ciphered"})));
  c.push_back(edge_never("S23", "MME never accepts a fabricated security_mode_complete",
                         kSec, mme_deliver("security_mode_complete", {kFab})));
  c.push_back(edge_never("S24", "MME never accepts a fabricated RES", kSec,
                         mme_deliver("authentication_response", {kFab}, {"res_valid=1"})));
  c.push_back(edge_never(
      "S25", "UE never completes security mode control without authentication", kSec,
      [] {
        MetaMatch m = ue_deliver("security_mode_command", {}, {}, {"security_mode_complete"});
        m.atoms_none = {"smc_replay=1"};
        m.pre_equals = {{"flag_auth", "0"}};
        return m;
      }()));
  c.push_back(edge_never("S26", "UE never completes SMC with an invalid MAC", kSec,
                         ue_deliver("security_mode_command", {}, {"mac_valid=0"},
                                    {"security_mode_complete"})));
  c.push_back(edge_never("S27", "UE never answers a challenge that failed the SQN check",
                         kSec,
                         ue_deliver("authentication_request", {}, {"sqn_ok=0"},
                                    {"authentication_response"})));
  c.push_back(edge_never("S28", "Undecodable PDUs elicit no response", kSec, [] {
    MetaMatch m = ue_deliver("undecodable_pdu");
    m.action_nonnull = true;
    return m;
  }()));
  c.push_back(edge_never("S29", "Undecodable PDUs cause no state change", kSec, [] {
    MetaMatch m = ue_deliver("undecodable_pdu");
    m.state_changed = true;
    return m;
  }()));
  c.push_back(edge_never("S30", "Messages failing the COUNT check elicit no response", kSec,
                         [] {
                           MetaMatch m = ue_deliver("", {}, {"count_ok=0"});
                           m.action_nonnull = true;
                           return m;
                         }()));
  c.push_back(edge_never("S31", "MME fast re-attach requires verified integrity", kSec, [] {
    MetaMatch m = mme_deliver("attach_request", {}, {"integrity_ok=1"}, {"attach_accept"});
    m.pre_equals = {{"chan_ul_protected", "0"}};
    return m;
  }()));
  c.push_back(edge_never("S32", "Service requests are sent only when service is possible",
                         kSec, [] {
                           MetaMatch m;
                           m.actor = Actor::kUe;
                           m.kind = Kind::kInternal;
                           m.message = "service_request_trigger";
                           m.atoms_all = {"service_possible=0"};
                           m.action_nonnull = true;
                           return m;
                         }()));
  c.push_back(edge_never("S33", "UE never starts an attach while registered", kSec, [] {
    MetaMatch m;
    m.actor = Actor::kUe;
    m.kind = Kind::kInternal;
    m.message = "power_on_trigger";
    m.from_states = registered_family();
    return m;
  }()));

  // S34–S37 — procedure-completion liveness (selective-denial family) and a
  // network-side replay invariant.
  {
    PropertyDef p = response("S34", "A UE-initiated detach eventually completes", kSec,
                             actor_sends(Actor::kUe, "detach_request"),
                             ue_deliver("detach_accept"), "P3");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = response("S35", "An initiated tracking area update eventually completes",
                             kSec, actor_sends(Actor::kUe, "tracking_area_update_request"),
                             ue_deliver("tracking_area_update_accept"), "P3");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = response("S36", "A paged UE eventually obtains service", kSec,
                             actor_sends(Actor::kMme, "paging"),
                             mme_deliver("service_request"), "P3");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  c.push_back(edge_never("S37", "MME never processes a stale-COUNT uplink message", kSec,
                         mme_deliver("", {}, {"replay_accepted=1"})));

  // ===== Privacy properties P01–P25 ======================================

  {
    PropertyDef p = edge_never(
        "P01", "Responses to a replayed authentication_request are not linkable", kPriv,
        ue_deliver("authentication_request", {kRep}, {"sqn_ok=1"},
                   {"authentication_response"}),
        "P2");
    p.equivalence_message = "authentication_request";
    p.equivalence_victim_atoms = {"sqn_ok=1"};
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never(
        "P02", "IMSI is never disclosed to a plain identity_request after registration",
        kPriv,
        [] {
          MetaMatch m = ue_deliver("identity_request", {}, {"sec_hdr=plain_nas"},
                                   {"identity_response"});
          m.from_states = registered_family();
          return m;
        }(),
        "I5");
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never(
        "P03", "Responses to a replayed security_mode_command are not linkable", kPriv,
        ue_deliver("security_mode_command", {}, {"smc_replay=1"},
                   {"security_mode_complete"}),
        "I6");
    p.equivalence_message = "security_mode_command";
    p.equivalence_victim_atoms = {"smc_replay=1"};
    c.push_back(std::move(p));
  }
  {
    PropertyDef p =
        edge_never("P04", "TMSI reallocation responses are not linkable", kPriv,
                   ue_deliver("tmsi_reallocation_command"), "PR04");
    p.requires_atoms = {"tmsi_reallocation_command"};
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never(
        "P05", "Paging responses do not reveal IMSI-to-GUTI mappings", kPriv,
        ue_deliver("paging", {kFab, kRep}, {"identity_match=1"}, {"service_request"}),
        "PR05");
    p.equivalence_message = "paging";
    p.equivalence_victim_atoms = {"identity_match=1"};
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never(
        "P06", "Authentication failure causes are not linkable", kPriv,
        ue_deliver("authentication_request", {kRep}, {"sqn_ok=0"}), "PR06");
    p.equivalence_message = "authentication_request";
    p.equivalence_victim_atoms = {"sqn_ok=0"};
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = response(
        "P07", "An assigned GUTI is eventually reallocated (anti-tracking)", kPriv,
        ue_deliver("attach_accept", {}, {"guti_assigned=1"}),
        ue_deliver("guti_reallocation_command"), "PR14");
    p.common_with_lteinspector = true;
    c.push_back(std::move(p));
  }
  c.push_back(edge_never("P08", "IMSI is never disclosed while deregistered", kPriv, [] {
    MetaMatch m = ue_deliver("identity_request", {}, {}, {"identity_response"});
    m.from_states = {"EMM_DEREGISTERED", "EMM_DEREGISTERED_ATTACH_NEEDED",
                     "EMM_DEREGISTERED_LIMITED_SERVICE"};
    return m;
  }()));
  c.push_back(edge_never("P09", "Paging for a foreign identity elicits no response", kPriv,
                         [] {
                           MetaMatch m = ue_deliver("paging", {}, {"identity_match=0"});
                           m.action_nonnull = true;
                           return m;
                         }()));
  {
    PropertyDef p = edge_never("P10", "GUTI reallocation replays are not linkable", kPriv,
                               [] {
                                 MetaMatch m = ue_deliver("guti_reallocation_command", {kRep});
                                 m.action_nonnull = true;
                                 return m;
                               }());
    p.equivalence_message = "guti_reallocation_command";
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never(
        "P11", "attach_accept replays are not linkable", kPriv,
        ue_deliver("attach_accept", {kRep}, {"replay_accepted=1"}), "I1");
    p.equivalence_message = "attach_accept";
    p.equivalence_victim_atoms = {"replay_accepted=1"};
    c.push_back(std::move(p));
  }
  c.push_back(edge_never("P12", "emm_information replays are not linkable", kPriv, [] {
    MetaMatch m = ue_deliver("emm_information", {kRep, kFab});
    m.action_nonnull = true;
    return m;
  }()));
  c.push_back(edge_never("P13", "tracking_area_update_accept replays are not linkable",
                         kPriv, [] {
                           MetaMatch m = ue_deliver("tracking_area_update_accept", {kRep, kFab});
                           m.action_nonnull = true;
                           return m;
                         }()));
  c.push_back(edge_never("P14", "detach_accept injection is not observable", kPriv, [] {
    MetaMatch m = ue_deliver("detach_accept", {kRep, kFab});
    m.action_nonnull = true;
    return m;
  }()));
  c.push_back(edge_never("P15", "Refused identity downgrades produce no response", kPriv,
                         [] {
                           MetaMatch m = ue_deliver("identity_request", {},
                                                    {"plain_downgrade_refused=1"});
                           m.action_nonnull = true;
                           return m;
                         }()));
  c.push_back(edge_never("P16", "configuration_update_command replays are not linkable",
                         kPriv, [] {
                           MetaMatch m = ue_deliver("configuration_update_command", {kRep});
                           m.action_nonnull = true;
                           return m;
                         }()));
  {
    PropertyDef p = edge_never("P17", "attach_reject handling is observationally uniform",
                               kPriv, [] {
                                 MetaMatch m = ue_deliver("attach_reject", {kFab});
                                 m.action_nonnull = true;
                                 return m;
                               }());
    p.equivalence_message = "attach_reject";
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never("P18", "service_reject handling is observationally uniform",
                               kPriv, [] {
                                 MetaMatch m = ue_deliver("service_reject", {kFab});
                                 m.action_nonnull = true;
                                 return m;
                               }());
    p.equivalence_message = "service_reject";
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never("P19", "tau_reject handling is observationally uniform",
                               kPriv, [] {
                                 MetaMatch m = ue_deliver("tracking_area_update_reject", {kFab});
                                 m.action_nonnull = true;
                                 return m;
                               }());
    p.equivalence_message = "tracking_area_update_reject";
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never("P20", "authentication_reject handling is uniform", kPriv,
                               [] {
                                 MetaMatch m = ue_deliver("authentication_reject", {kFab});
                                 m.action_nonnull = true;
                                 return m;
                               }());
    p.equivalence_message = "authentication_reject";
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never(
        "P21", "security_mode_reject responses are observationally uniform", kPriv,
        ue_deliver("security_mode_command", {kFab}, {"mac_valid=0"},
                   {"security_mode_reject"}));
    p.equivalence_message = "security_mode_command";
    p.equivalence_victim_atoms = {"mac_valid=0"};
    c.push_back(std::move(p));
  }
  {
    PropertyDef p = edge_never("P22", "detach_request handling is observationally uniform",
                               kPriv, [] {
                                 MetaMatch m = ue_deliver("detach_request", {kFab});
                                 m.action_nonnull = true;
                                 return m;
                               }());
    p.equivalence_message = "detach_request";
    c.push_back(std::move(p));
  }
  c.push_back(edge_never("P23", "The network never pages by IMSI once a GUTI is assigned",
                         kPriv, [] {
                           MetaMatch m = ue_deliver("paging", {}, {"paged_by=imsi"});
                           m.from_states = registered_family();
                           return m;
                         }()));
  {
    PropertyDef p = edge_never(
        "P24", "GUTI is never rewritten by an unprotected command", kPriv,
        ue_deliver("guti_reallocation_command", {}, {"sec_hdr=plain_nas", "guti_updated=1"}),
        "I2");
    c.push_back(std::move(p));
  }
  c.push_back(edge_never("P25", "service_request replays are not accepted by the MME", kPriv,
                         mme_deliver("service_request", {kRep})));

  return c;
}

}  // namespace

const std::vector<PropertyDef>& property_catalog() {
  static const std::vector<PropertyDef> kCatalog = build_catalog();
  return kCatalog;
}

std::vector<const PropertyDef*> common_properties() {
  std::vector<const PropertyDef*> out;
  for (const PropertyDef& p : property_catalog()) {
    if (p.common_with_lteinspector) out.push_back(&p);
  }
  return out;
}

}  // namespace procheck::checker
