// Threat-model composer tests: alphabets, provenance admissibility, the
// indicator flags, key-possession guards, and the adversary command set of
// the compiled IMP^μ.
#include <gtest/gtest.h>

#include <algorithm>

#include "checker/baseline.h"
#include "mc/checker.h"
#include "threat/compose.h"

namespace procheck::threat {
namespace {

fsm::Transition make(std::string from, std::string to, std::set<fsm::Atom> cond,
                     std::set<fsm::Atom> act) {
  fsm::Transition t;
  t.from = std::move(from);
  t.to = std::move(to);
  t.conditions = std::move(cond);
  t.actions = std::move(act);
  return t;
}

/// Minimal UE machine exercising trigger, plain, protected, and
/// replay-tolerant transitions.
fsm::Fsm tiny_ue() {
  fsm::Fsm m;
  m.set_initial("DEREG");
  m.add_transition(make("DEREG", "WAIT", {"power_on_trigger"}, {"attach_request"}));
  m.add_transition(make("WAIT", "WAIT",
                        {"authentication_request", "sec_hdr=plain_nas", "mac_valid=1",
                         "sqn_ok=1"},
                        {"authentication_response"}));
  m.add_transition(make("WAIT", "WAIT",
                        {"security_mode_command", "sec_hdr=integrity_protected",
                         "mac_valid=1"},
                        {"security_mode_complete"}));
  m.add_transition(make("WAIT", "REG",
                        {"attach_accept", "sec_hdr=integrity_protected_ciphered",
                         "mac_valid=1"},
                        {"attach_complete"}));
  m.add_transition(make("REG", "REG",
                        {"attach_accept", "sec_hdr=integrity_protected_ciphered",
                         "replay_accepted=1"},
                        {fsm::kNullAction}));
  m.add_transition(make("REG", "DEREG", {"attach_reject", "sec_hdr=plain_nas",
                                         "ctx_deleted=1"},
                        {fsm::kNullAction}));
  return m;
}

fsm::Fsm tiny_mme() {
  fsm::Fsm m;
  m.set_initial("M_DEREG");
  m.add_transition(make("M_DEREG", "M_WAIT", {"attach_request"}, {"authentication_request"}));
  m.add_transition(make("M_WAIT", "M_SMC", {"authentication_response", "res_valid=1"},
                        {"security_mode_command"}));
  m.add_transition(make("M_SMC", "M_REG", {"security_mode_complete", "integrity_ok=1"},
                        {"attach_accept"}));
  return m;
}

ThreatModel tiny_model() { return compose(tiny_ue(), tiny_mme()); }

// --- split_conditions ---------------------------------------------------------

TEST(SplitConditions, SeparatesMessageTriggerAndPredicates) {
  ConditionSplit s = split_conditions({"attach_accept", "mac_valid=1", "sqn_ok=0"});
  EXPECT_EQ(s.message, "attach_accept");
  EXPECT_FALSE(s.is_trigger);
  EXPECT_EQ(s.predicates.size(), 2u);

  ConditionSplit t = split_conditions({"power_on_trigger"});
  EXPECT_EQ(t.message, "power_on_trigger");
  EXPECT_TRUE(t.is_trigger);
}

// --- Composition --------------------------------------------------------------

TEST(Compose, VariablesPresent) {
  ThreatModel tm = tiny_model();
  EXPECT_GE(tm.ue_state, 0);
  EXPECT_GE(tm.mme_state, 0);
  EXPECT_GE(tm.chan_dl, 0);
  EXPECT_GE(tm.chan_ul_prov, 0);
  EXPECT_GE(tm.flag_auth, 0);
  EXPECT_GE(tm.flag_ctx, 0);
  EXPECT_GE(tm.chan_ul_protected, 0);
  EXPECT_EQ(tm.model.value_name(tm.ue_state, tm.ue_state_index("DEREG")), "DEREG");
  EXPECT_EQ(tm.model.initial()[tm.ue_state], tm.ue_state_index("DEREG"));
}

TEST(Compose, AlphabetsCoverBothMachines) {
  ThreatModel tm = tiny_model();
  EXPECT_EQ(tm.dl_alphabet[0], "none");
  EXPECT_GE(tm.dl_index("attach_accept"), 1);
  EXPECT_GE(tm.dl_index("authentication_request"), 1);
  EXPECT_GE(tm.dl_index("attach_reject"), 1);  // UE condition only
  EXPECT_GE(tm.ul_index("attach_request"), 1);
  EXPECT_GE(tm.ul_index("security_mode_complete"), 1);
  EXPECT_EQ(tm.dl_index("not_a_message"), -1);
  // Every action is in its channel's alphabet, so no assignment leaves a
  // declared domain and the graph build accepts the model.
  EXPECT_NO_THROW(mc::ReachGraph::build(tm.model));
}

TEST(Compose, TriggersAreNotMessages) {
  ThreatModel tm = tiny_model();
  EXPECT_EQ(tm.dl_index("power_on_trigger"), -1);
  EXPECT_EQ(tm.ul_index("power_on_trigger"), -1);
}

TEST(Compose, AdversaryCommandSet) {
  ThreatModel tm = tiny_model();
  int drops = 0;
  int injects = 0;
  int replays = 0;
  bool replay_attach_reject = false;
  for (const mc::Command& cmd : tm.model.commands()) {
    if (cmd.meta.actor != mc::CommandMeta::Actor::kAdversary) continue;
    switch (cmd.meta.kind) {
      case mc::CommandMeta::Kind::kDrop:
        ++drops;
        break;
      case mc::CommandMeta::Kind::kInject:
        ++injects;
        break;
      case mc::CommandMeta::Kind::kReplay:
        ++replays;
        replay_attach_reject = replay_attach_reject || cmd.meta.message == "attach_reject";
        break;
      default:
        break;
    }
  }
  // Every non-none channel symbol gets drop + inject.
  int symbols = static_cast<int>(tm.dl_alphabet.size() + tm.ul_alphabet.size()) - 2;
  EXPECT_EQ(drops, symbols);
  EXPECT_EQ(injects, symbols);
  // Replays only for genuinely transmitted messages: attach_reject is in the
  // UE's condition alphabet but nothing sends it.
  EXPECT_GT(replays, 0);
  EXPECT_FALSE(replay_attach_reject);
}

TEST(Compose, ProvenanceAdmissibility) {
  ThreatModel tm = tiny_model();
  // Collect (message, provenance) pairs of UE deliver commands.
  std::set<std::pair<std::string, int>> seen;
  for (const mc::Command& cmd : tm.model.commands()) {
    if (cmd.meta.actor == mc::CommandMeta::Actor::kUe &&
        cmd.meta.kind == mc::CommandMeta::Kind::kDeliver) {
      seen.insert({cmd.meta.message + "|" + cmd.meta.from_state, cmd.meta.provenance});
    }
  }
  // Plain auth request: all three provenances (replay allowed on plain).
  EXPECT_TRUE(seen.count({"authentication_request|WAIT", mc::kProvGenuine}));
  EXPECT_TRUE(seen.count({"authentication_request|WAIT", mc::kProvFabricated}));
  EXPECT_TRUE(seen.count({"authentication_request|WAIT", mc::kProvReplayed}));
  // Ciphered attach_accept accept-transition: no replay provenance (stale
  // COUNT would be rejected) ...
  EXPECT_TRUE(seen.count({"attach_accept|WAIT", mc::kProvGenuine}));
  EXPECT_FALSE(seen.count({"attach_accept|WAIT", mc::kProvReplayed}));
  // ... but the replay-tolerant transition admits it.
  EXPECT_TRUE(seen.count({"attach_accept|REG", mc::kProvReplayed}));
}

TEST(Compose, DeliverClearsChannelAndEmitsAction) {
  ThreatModel tm = tiny_model();
  // Find the genuine auth-request deliver command and execute it.
  mc::State s = tm.model.initial();
  s[tm.ue_state] = tm.ue_state_index("WAIT");
  s[tm.chan_dl] = tm.dl_index("authentication_request");
  s[tm.chan_dl_prov] = mc::kProvGenuine;
  bool fired = false;
  tm.model.successors(s, [&](const mc::State& next, const mc::Command& cmd) {
    if (cmd.meta.kind != mc::CommandMeta::Kind::kDeliver) return;
    if (cmd.meta.message != "authentication_request") return;
    fired = true;
    EXPECT_EQ(next[tm.chan_dl], 0);
    EXPECT_EQ(next[tm.chan_ul], tm.ul_index("authentication_response"));
    EXPECT_EQ(next[tm.chan_ul_prov], mc::kProvGenuine);
    EXPECT_EQ(next[tm.flag_auth], 1);  // vocabulary-driven indicator
  });
  EXPECT_TRUE(fired);
}

TEST(Compose, SmcRequiresKeyPossession) {
  // The SMC deliver command is guarded on flag_auth ∨ flag_ctx: the UE
  // cannot MAC-verify an SMC without keys.
  ThreatModel tm = tiny_model();
  mc::State s = tm.model.initial();
  s[tm.ue_state] = tm.ue_state_index("WAIT");
  s[tm.chan_dl] = tm.dl_index("security_mode_command");
  s[tm.chan_dl_prov] = mc::kProvGenuine;
  s[tm.chan_dl_protected] = 1;  // the genuine SMC is integrity-protected
  int fired_without_keys = 0;
  tm.model.successors(s, [&](const mc::State&, const mc::Command& cmd) {
    if (cmd.meta.message == "security_mode_command" &&
        cmd.meta.kind == mc::CommandMeta::Kind::kDeliver) {
      ++fired_without_keys;
    }
  });
  EXPECT_EQ(fired_without_keys, 0);
  s[tm.flag_auth] = 1;
  int fired_with_keys = 0;
  tm.model.successors(s, [&](const mc::State&, const mc::Command& cmd) {
    if (cmd.meta.message == "security_mode_command" &&
        cmd.meta.kind == mc::CommandMeta::Kind::kDeliver) {
      ++fired_with_keys;
    }
  });
  EXPECT_GT(fired_with_keys, 0);
}

TEST(Compose, CipheredDeliveryRequiresContext) {
  ThreatModel tm = tiny_model();
  mc::State s = tm.model.initial();
  s[tm.ue_state] = tm.ue_state_index("WAIT");
  s[tm.chan_dl] = tm.dl_index("attach_accept");
  s[tm.chan_dl_prov] = mc::kProvGenuine;
  s[tm.chan_dl_protected] = 1;  // genuine attach_accept is ciphered
  int fired = 0;
  tm.model.successors(s, [&](const mc::State&, const mc::Command& cmd) {
    if (cmd.meta.message == "attach_accept" &&
        cmd.meta.kind == mc::CommandMeta::Kind::kDeliver) {
      ++fired;
    }
  });
  EXPECT_EQ(fired, 0);  // flag_ctx = 0: cannot decipher
  s[tm.flag_ctx] = 1;
  tm.model.successors(s, [&](const mc::State&, const mc::Command& cmd) {
    if (cmd.meta.message == "attach_accept" &&
        cmd.meta.kind == mc::CommandMeta::Kind::kDeliver) {
      ++fired;
    }
  });
  EXPECT_GT(fired, 0);
}

TEST(Compose, MmeIntegrityGuardRequiresProtectedUplink) {
  ThreatModel tm = tiny_model();
  mc::State s = tm.model.initial();
  s[tm.mme_state] = tm.mme_state_index("M_SMC");
  s[tm.chan_ul] = tm.ul_index("security_mode_complete");
  s[tm.chan_ul_prov] = mc::kProvGenuine;
  s[tm.chan_ul_protected] = 0;
  int fired = 0;
  tm.model.successors(s, [&](const mc::State&, const mc::Command& cmd) {
    if (cmd.meta.actor == mc::CommandMeta::Actor::kMme &&
        cmd.meta.kind == mc::CommandMeta::Kind::kDeliver) {
      ++fired;
    }
  });
  EXPECT_EQ(fired, 0);
  s[tm.chan_ul_protected] = 1;
  tm.model.successors(s, [&](const mc::State&, const mc::Command& cmd) {
    if (cmd.meta.actor == mc::CommandMeta::Actor::kMme &&
        cmd.meta.kind == mc::CommandMeta::Kind::kDeliver) {
      ++fired;
    }
  });
  EXPECT_GT(fired, 0);
}

TEST(Compose, ContextClearedOnRejectTransition) {
  ThreatModel tm = tiny_model();
  mc::State s = tm.model.initial();
  s[tm.ue_state] = tm.ue_state_index("REG");
  s[tm.flag_ctx] = 1;
  s[tm.chan_dl] = tm.dl_index("attach_reject");
  s[tm.chan_dl_prov] = mc::kProvFabricated;
  bool fired = false;
  tm.model.successors(s, [&](const mc::State& next, const mc::Command& cmd) {
    if (cmd.meta.message != "attach_reject" ||
        cmd.meta.kind != mc::CommandMeta::Kind::kDeliver) {
      return;
    }
    fired = true;
    EXPECT_EQ(next[tm.flag_ctx], 0);  // ctx_deleted=1 atom clears it
    EXPECT_EQ(next[tm.ue_state], tm.ue_state_index("DEREG"));
  });
  EXPECT_TRUE(fired);
}

TEST(Compose, BaselineModelsComposeToo) {
  // The checker composes the extracted UE with the manual MME; the manual
  // UE baseline must also compose (Fig. 8's comparison model).
  ThreatModel tm = compose(checker::lteinspector_ue_model(),
                           checker::lteinspector_mme_model());
  EXPECT_GT(tm.model.commands().size(), 30u);
  EXPECT_GE(tm.dl_index("attach_accept"), 1);
  EXPECT_NO_THROW(mc::ReachGraph::build(tm.model));
}

TEST(Compose, ModelNamesTheComposition) {
  ThreatModel tm = tiny_model();
  EXPECT_EQ(tm.model.var_name(tm.ue_state), "ue_state");
  EXPECT_EQ(tm.model.var_name(tm.chan_dl), "chan_dl");
  const std::vector<mc::Command>& cmds = tm.model.commands();
  EXPECT_TRUE(std::any_of(cmds.begin(), cmds.end(), [](const mc::Command& cmd) {
    return cmd.label == "adv_inject_dl_attach_reject";
  }));
}

}  // namespace
}  // namespace procheck::threat
