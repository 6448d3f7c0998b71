#include "threat/compose.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace procheck::threat {

namespace {

bool is_predicate_atom(const std::string& atom) { return contains(atom, "="); }
bool is_trigger_atom(const std::string& atom) { return ends_with(atom, "_trigger"); }

struct TransitionView {
  const fsm::Transition* t;
  ConditionSplit cond;
  std::string action;  // first non-null action ("" if none)
};

std::vector<TransitionView> views_of(const fsm::Fsm& machine) {
  std::vector<TransitionView> out;
  for (const fsm::Transition& t : machine.transitions()) {
    TransitionView v;
    v.t = &t;
    v.cond = split_conditions(t.conditions);
    for (const fsm::Atom& a : t.actions) {
      if (a != fsm::kNullAction) {
        v.action = a;
        break;
      }
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::int32_t index_of(const std::vector<std::string>& alphabet, const std::string& name) {
  auto it = std::find(alphabet.begin(), alphabet.end(), name);
  return it == alphabet.end() ? -1 : static_cast<std::int32_t>(it - alphabet.begin());
}

/// Does this transition clear the receiver's security context?
bool clears_context(const fsm::Transition& t, const std::string& message) {
  if (t.conditions.count("ctx_deleted=1") > 0 || t.conditions.count("key_desync=1") > 0) {
    return true;
  }
  return message == "detach_request" || message == "detach_accept" ||
         message == "authentication_reject" || message == "service_reject";
}

/// Which provenance values a received-message transition structurally
/// admits (crypto feasibility is the CPV's job, not encoded here).
std::vector<std::int32_t> admissible_provenance(const fsm::Transition& t) {
  bool replay_tolerant = false;
  bool plain = false;
  bool count_fresh_required = false;
  bool protected_hdr = false;
  bool integrity_flag = false;
  for (const fsm::Atom& a : t.conditions) {
    if (is_replay_tolerant_atom(a)) replay_tolerant = true;
    if (a == "sec_hdr=plain_nas") plain = true;
    if (a == "count_ok=1") count_fresh_required = true;
    if (starts_with(a, "sec_hdr=") && a != "sec_hdr=plain_nas") protected_hdr = true;
    if (a == "integrity_ok=1") integrity_flag = true;
  }
  std::vector<std::int32_t> out{mc::kProvGenuine, mc::kProvFabricated};
  // A session-protected replay carries a stale COUNT: only replay-tolerant
  // transitions, or transitions consuming messages outside the session's
  // counter stream (plain, or claiming no integrity at all), can consume it.
  if (!count_fresh_required &&
      (replay_tolerant || plain || (!protected_hdr && !integrity_flag))) {
    out.push_back(mc::kProvReplayed);
  }
  return out;
}

}  // namespace

bool is_replay_tolerant_atom(const std::string& atom) {
  return atom == "replay_accepted=1" || atom == "smc_replay=1" || atom == "counter_reset=1";
}

std::vector<mc::CommandMeta> transition_metas(const fsm::Transition& t,
                                              mc::CommandMeta::Actor actor) {
  const ConditionSplit cond = split_conditions(t.conditions);
  mc::CommandMeta base;
  base.actor = actor;
  base.message = cond.message;
  base.atoms = t.conditions;
  base.actions = t.actions;
  base.from_state = t.from;
  base.to_state = t.to;
  std::vector<mc::CommandMeta> out;
  if (cond.is_trigger || cond.message.empty()) {
    base.kind = mc::CommandMeta::Kind::kInternal;
    out.push_back(std::move(base));
    return out;
  }
  base.kind = mc::CommandMeta::Kind::kDeliver;
  const std::vector<std::int32_t> provs = admissible_provenance(t);
  out.assign(provs.size(), base);
  for (std::size_t i = 0; i < provs.size(); ++i) out[i].provenance = provs[i];
  return out;
}

ConditionSplit split_conditions(const std::set<fsm::Atom>& conditions) {
  ConditionSplit out;
  for (const fsm::Atom& a : conditions) {
    if (is_trigger_atom(a)) {
      out.message = a;
      out.is_trigger = true;
    } else if (is_predicate_atom(a)) {
      out.predicates.push_back(a);
    } else {
      out.message = a;
    }
  }
  return out;
}

std::int32_t ThreatModel::dl_index(const std::string& msg) const {
  return index_of(dl_alphabet, msg);
}
std::int32_t ThreatModel::ul_index(const std::string& msg) const {
  return index_of(ul_alphabet, msg);
}
std::int32_t ThreatModel::ue_state_index(const std::string& name) const {
  return model.value_index(ue_state, name);
}
std::int32_t ThreatModel::mme_state_index(const std::string& name) const {
  return model.value_index(mme_state, name);
}

ThreatModel compose(const fsm::Fsm& ue_fsm, const fsm::Fsm& mme_fsm) {
  ThreatModel tm;

  const std::vector<TransitionView> ue_views = views_of(ue_fsm);
  const std::vector<TransitionView> mme_views = views_of(mme_fsm);

  // --- Alphabets --------------------------------------------------------
  std::set<std::string> dl_set;   // messages that can sit on c2 (MME→UE)
  std::set<std::string> ul_set;   // messages that can sit on c1 (UE→MME)
  std::set<std::string> dl_genuine;  // genuinely transmitted: replayable
  std::set<std::string> ul_genuine;
  for (const TransitionView& v : ue_views) {
    if (!v.cond.is_trigger && !v.cond.message.empty()) dl_set.insert(v.cond.message);
    if (!v.action.empty()) {
      ul_set.insert(v.action);
      ul_genuine.insert(v.action);
    }
  }
  for (const TransitionView& v : mme_views) {
    if (!v.cond.is_trigger && !v.cond.message.empty()) ul_set.insert(v.cond.message);
    if (!v.action.empty()) {
      dl_set.insert(v.action);
      dl_genuine.insert(v.action);
    }
  }

  tm.dl_alphabet = {"none"};
  tm.dl_alphabet.insert(tm.dl_alphabet.end(), dl_set.begin(), dl_set.end());
  tm.ul_alphabet = {"none"};
  tm.ul_alphabet.insert(tm.ul_alphabet.end(), ul_set.begin(), ul_set.end());

  // --- Variables ----------------------------------------------------------
  std::vector<std::string> ue_states(ue_fsm.states().begin(), ue_fsm.states().end());
  std::vector<std::string> mme_states(mme_fsm.states().begin(), mme_fsm.states().end());
  auto init_index = [](const std::vector<std::string>& states, const std::string& initial) {
    auto it = std::find(states.begin(), states.end(), initial);
    return it == states.end() ? 0 : static_cast<std::int32_t>(it - states.begin());
  };

  tm.ue_state = tm.model.add_var("ue_state", static_cast<std::int32_t>(ue_states.size()),
                                 init_index(ue_states, ue_fsm.initial()), ue_states);
  tm.mme_state = tm.model.add_var("mme_state", static_cast<std::int32_t>(mme_states.size()),
                                  init_index(mme_states, mme_fsm.initial()), mme_states);
  tm.chan_dl = tm.model.add_var("chan_dl", static_cast<std::int32_t>(tm.dl_alphabet.size()), 0,
                                tm.dl_alphabet);
  tm.chan_dl_prov = tm.model.add_var("chan_dl_prov", 4, 0,
                                     {"none", "genuine", "replayed", "fabricated"});
  tm.chan_ul = tm.model.add_var("chan_ul", static_cast<std::int32_t>(tm.ul_alphabet.size()), 0,
                                tm.ul_alphabet);
  tm.chan_ul_prov = tm.model.add_var("chan_ul_prov", 4, 0,
                                     {"none", "genuine", "replayed", "fabricated"});
  tm.flag_auth = tm.model.add_var("flag_auth", 2, 0, {"0", "1"});
  tm.flag_smc = tm.model.add_var("flag_smc", 2, 0, {"0", "1"});
  tm.flag_ctx = tm.model.add_var("flag_ctx", 2, 0, {"0", "1"});
  tm.flag_mme_ctx = tm.model.add_var("flag_mme_ctx", 2, 0, {"0", "1"});
  tm.chan_ul_protected = tm.model.add_var("chan_ul_protected", 2, 0, {"0", "1"});
  tm.chan_dl_protected = tm.model.add_var("chan_dl_protected", 2, 0, {"0", "1"});

  using mc::Command;
  using mc::CommandMeta;
  using mc::Expr;

  // --- Protocol-entity commands -------------------------------------------
  auto add_entity_commands = [&](const std::vector<TransitionView>& views, bool is_ue) {
    const int state_var = is_ue ? tm.ue_state : tm.mme_state;
    const int in_chan = is_ue ? tm.chan_dl : tm.chan_ul;
    const int in_prov = is_ue ? tm.chan_dl_prov : tm.chan_ul_prov;
    const int out_chan = is_ue ? tm.chan_ul : tm.chan_dl;
    const int out_prov = is_ue ? tm.chan_ul_prov : tm.chan_dl_prov;
    const std::vector<std::string>& out_alphabet = is_ue ? tm.ul_alphabet : tm.dl_alphabet;
    const std::string prefix = is_ue ? "ue" : "mme";
    const CommandMeta::Actor actor = is_ue ? CommandMeta::Actor::kUe : CommandMeta::Actor::kMme;

    for (const TransitionView& v : views) {
      const std::int32_t from = tm.model.value_index(state_var, v.t->from);
      const std::int32_t to = tm.model.value_index(state_var, v.t->to);
      if (from < 0 || to < 0) continue;

      auto flag_updates = [&](std::vector<mc::Assign>& updates) {
        if (!is_ue) {
          // MME-side context tracking + downlink protection stamping.
          if (v.action == "security_mode_command") updates.push_back({tm.flag_mme_ctx, 1});
          if (clears_context(*v.t, v.cond.message) ||
              (v.cond.message == "attach_request" &&
               v.t->conditions.count("integrity_ok=1") == 0)) {
            updates.push_back({tm.flag_mme_ctx, 0});
          }
          if (!v.action.empty()) {
            if (v.action == "security_mode_command") {
              updates.push_back({tm.chan_dl_protected, 1});
            } else if (v.action == "paging") {
              updates.push_back({tm.chan_dl_protected, 0});  // broadcast, always plain
            } else {
              updates.push_back({tm.chan_dl_protected, 0, tm.flag_mme_ctx});
            }
          }
          return;
        }
        if (v.action == "authentication_response") updates.push_back({tm.flag_auth, 1});
        if (v.action == "security_mode_complete") {
          updates.push_back({tm.flag_smc, 1});
          updates.push_back({tm.flag_ctx, 1});
        }
        if (v.action == "attach_request") {
          updates.push_back({tm.flag_auth, 0});
          updates.push_back({tm.flag_smc, 0});
        }
        if (clears_context(*v.t, v.cond.message)) updates.push_back({tm.flag_ctx, 0});
        if (!v.action.empty()) {
          // Genuine uplink sends are protected iff the UE holds a context
          // (smc_complete itself is protected with the just-installed one —
          // the const assignment above stands; this copy runs first).
          if (v.action != "security_mode_complete") {
            updates.push_back({tm.chan_ul_protected, 0, tm.flag_ctx});
          } else {
            updates.push_back({tm.chan_ul_protected, 1});
          }
        }
      };

      std::vector<CommandMeta> metas = transition_metas(*v.t, actor);
      if (metas.front().kind == CommandMeta::Kind::kInternal) {
        // Internal-event transition: fires when the outgoing channel has
        // room for the responsive action.
        Command cmd;
        cmd.label = prefix + "_internal_" + (v.cond.message.empty() ? "tau" : v.cond.message) +
                    "_at_" + v.t->from;
        Expr guard = Expr::eq(state_var, from);
        std::vector<mc::Assign> updates{{state_var, to}};
        if (!v.action.empty()) {
          guard = Expr::land(std::move(guard), Expr::eq(out_chan, 0));
          std::int32_t act = index_of(out_alphabet, v.action);
          updates.push_back({out_chan, act});
          updates.push_back({out_prov, mc::kProvGenuine});
        }
        flag_updates(updates);
        cmd.guard = std::move(guard);
        cmd.updates = std::move(updates);
        cmd.meta = std::move(metas.front());
        tm.model.add_command(std::move(cmd));
        continue;
      }

      // Received-message transition: one command per admissible provenance
      // so counterexample steps carry the provenance statically.
      const std::int32_t msg =
          index_of(is_ue ? tm.dl_alphabet : tm.ul_alphabet, v.cond.message);
      if (msg < 0) continue;
      for (CommandMeta& meta : metas) {
        const std::int32_t prov = meta.provenance;
        Command cmd;
        cmd.label = prefix + "_recv_" + v.cond.message + "_at_" + v.t->from + "_" +
                    tm.model.value_name(in_prov, prov);
        if (!v.cond.predicates.empty()) {
          cmd.label += " [" + join(v.cond.predicates, ",") + "]";
        }
        Expr guard = Expr::all({Expr::eq(state_var, from), Expr::eq(in_chan, msg),
                                Expr::eq(in_prov, prov)});
        if (!is_ue && v.t->conditions.count("integrity_ok=1") > 0) {
          // An integrity-verified uplink message must actually have been
          // protected by a key holder.
          guard = Expr::land(std::move(guard), Expr::eq(tm.chan_ul_protected, 1));
        }
        if (is_ue) {
          // Key-possession structure (not forgeability — that is the
          // CPV's domain): deciphering a protected+ciphered message needs
          // the current security context; MAC-verifying an SMC needs either
          // the fresh AKA keys or the current context.
          if (v.t->conditions.count("sec_hdr=integrity_protected_ciphered") > 0) {
            guard = Expr::land(std::move(guard), Expr::eq(tm.flag_ctx, 1));
          } else if (v.t->conditions.count("sec_hdr=integrity_protected") > 0 &&
                     v.t->conditions.count("mac_valid=1") > 0 &&
                     v.t->conditions.count("smc_replay=1") == 0) {
            guard = Expr::land(std::move(guard),
                               Expr::lor(Expr::eq(tm.flag_auth, 1), Expr::eq(tm.flag_ctx, 1)));
          }
          // Framing consistency for genuine traffic: the legitimate network
          // sends each message with the protection its context mandates, so
          // a genuine delivery only fires a transition whose sec_hdr atom
          // matches the stamped protection bit.
          if (prov == mc::kProvGenuine) {
            if (v.t->conditions.count("sec_hdr=plain_nas") > 0) {
              guard = Expr::land(std::move(guard), Expr::eq(tm.chan_dl_protected, 0));
            } else if (v.t->conditions.count("sec_hdr=integrity_protected") > 0 ||
                       v.t->conditions.count("sec_hdr=integrity_protected_ciphered") > 0) {
              guard = Expr::land(std::move(guard), Expr::eq(tm.chan_dl_protected, 1));
            }
          }
        }
        std::vector<mc::Assign> updates{
            {state_var, to}, {in_chan, 0}, {in_prov, mc::kProvNone}};
        if (!v.action.empty()) {
          guard = Expr::land(std::move(guard), Expr::eq(out_chan, 0));
          std::int32_t act = index_of(out_alphabet, v.action);
          updates.push_back({out_chan, act});
          updates.push_back({out_prov, mc::kProvGenuine});
        }
        flag_updates(updates);
        cmd.guard = std::move(guard);
        cmd.updates = std::move(updates);
        cmd.meta = std::move(meta);
        tm.model.add_command(std::move(cmd));
      }
    }
  };

  add_entity_commands(ue_views, /*is_ue=*/true);
  add_entity_commands(mme_views, /*is_ue=*/false);

  // --- Adversary commands ---------------------------------------------------
  auto add_adversary = [&](bool downlink) {
    const int chan = downlink ? tm.chan_dl : tm.chan_ul;
    const int prov = downlink ? tm.chan_dl_prov : tm.chan_ul_prov;
    const std::vector<std::string>& alphabet = downlink ? tm.dl_alphabet : tm.ul_alphabet;
    const std::set<std::string>& genuine = downlink ? dl_genuine : ul_genuine;
    const std::string dir = downlink ? "dl" : "ul";

    for (std::size_t i = 1; i < alphabet.size(); ++i) {
      const std::string& m = alphabet[i];
      const auto mi = static_cast<std::int32_t>(i);

      Command drop;
      drop.label = "adv_drop_" + dir + "_" + m;
      drop.guard = Expr::eq(chan, mi);
      drop.updates = {{chan, 0}, {prov, mc::kProvNone}};
      drop.meta.actor = CommandMeta::Actor::kAdversary;
      drop.meta.kind = CommandMeta::Kind::kDrop;
      drop.meta.message = m;
      tm.model.add_command(std::move(drop));

      Command inject;
      inject.label = "adv_inject_" + dir + "_" + m;
      inject.guard = Expr::eq(chan, 0);
      inject.updates = {{chan, mi}, {prov, mc::kProvFabricated}};
      if (!downlink) inject.updates.push_back({tm.chan_ul_protected, 1});
      inject.meta.actor = CommandMeta::Actor::kAdversary;
      inject.meta.kind = CommandMeta::Kind::kInject;
      inject.meta.message = m;
      inject.meta.provenance = mc::kProvFabricated;
      tm.model.add_command(std::move(inject));

      if (genuine.count(m) > 0) {
        Command replay;
        replay.label = "adv_replay_" + dir + "_" + m;
        replay.guard = Expr::eq(chan, 0);
        replay.updates = {{chan, mi}, {prov, mc::kProvReplayed}};
        if (!downlink) replay.updates.push_back({tm.chan_ul_protected, 1});
        replay.meta.actor = CommandMeta::Actor::kAdversary;
        replay.meta.kind = CommandMeta::Kind::kReplay;
        replay.meta.message = m;
        replay.meta.provenance = mc::kProvReplayed;
        tm.model.add_command(std::move(replay));
      }
    }
  };

  add_adversary(/*downlink=*/true);
  add_adversary(/*downlink=*/false);

  return tm;
}

}  // namespace procheck::threat
