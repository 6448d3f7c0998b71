// Cryptographic-protocol-verifier tests: the Dolev–Yao term algebra and
// knowledge saturation, the LTE feasibility judgments used by the CEGAR
// loop, the observational-equivalence (linkability) queries, and one
// verifier judging from several threads at once.
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "checker/baseline.h"
#include "cpv/knowledge.h"
#include "cpv/lte_crypto.h"
#include "cpv/term.h"

namespace procheck::cpv {
namespace {

// --- Terms -------------------------------------------------------------------

TEST(Term, EqualityAndOrdering) {
  Term a = Term::name("k");
  Term b = Term::name("k");
  Term c = Term::name("m");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a < c || c < a);
  Term f = Term::pair(a, c);
  Term g = Term::pair(a, c);
  EXPECT_EQ(f, g);
  EXPECT_FALSE(f == a);
}

TEST(Term, ToString) {
  EXPECT_EQ(Term::name("k").to_string(), "k");
  EXPECT_EQ(Term::senc(Term::name("m"), Term::name("k")).to_string(), "senc(m, k)");
  EXPECT_EQ(Term::pair(Term::name("a"), Term::name("b")).to_string(), "pair(a, b)");
}

TEST(Term, NameVsNullaryFunctionDiffer) {
  EXPECT_FALSE(Term::name("f") == Term::func("f", {}));
}

// --- Knowledge saturation ----------------------------------------------------

TEST(Knowledge, LearnedTermsAreDerivable) {
  Knowledge k;
  k.learn(Term::name("m"));
  EXPECT_TRUE(k.derivable(Term::name("m")));
  EXPECT_FALSE(k.derivable(Term::name("secret")));
}

TEST(Knowledge, PairsDecompose) {
  Knowledge k;
  k.learn(Term::pair(Term::name("a"), Term::name("b")));
  EXPECT_TRUE(k.derivable(Term::name("a")));
  EXPECT_TRUE(k.derivable(Term::name("b")));
}

TEST(Knowledge, NestedPairsDecompose) {
  Knowledge k;
  k.learn(Term::pair(Term::pair(Term::name("a"), Term::name("b")), Term::name("c")));
  EXPECT_TRUE(k.derivable(Term::name("a")));
  EXPECT_TRUE(k.derivable(Term::name("c")));
}

TEST(Knowledge, EncryptionOpensOnlyWithKey) {
  Knowledge k;
  k.learn(Term::senc(Term::name("m"), Term::name("key")));
  EXPECT_FALSE(k.derivable(Term::name("m")));
  k.learn(Term::name("key"));
  EXPECT_TRUE(k.derivable(Term::name("m")));
}

TEST(Knowledge, EncryptionUnderDerivedKeyOpens) {
  // Key arrives inside a pair: saturation must chain analysis steps.
  Knowledge k;
  k.learn(Term::senc(Term::name("m"), Term::name("key")));
  k.learn(Term::pair(Term::name("key"), Term::name("junk")));
  EXPECT_TRUE(k.derivable(Term::name("m")));
}

TEST(Knowledge, AnyDerivableKeyOpensEncryption) {
  // senc(m, k) ∈ K, K ⊢ k ⇒ m ∈ K: saturation opens an encryption under
  // any key derivable() composes, not only names and the LTE constructors.
  Knowledge k;
  const Term key = Term::func("h", {Term::name("a")});
  k.learn(Term::senc(Term::name("m"), key));
  k.learn(Term::name("a"));
  EXPECT_TRUE(k.derivable(key));
  EXPECT_TRUE(k.derivable(Term::name("m")));
}

TEST(Knowledge, MacIsOneWay) {
  Knowledge k;
  k.learn(Term::mac(Term::name("m"), Term::name("key")));
  EXPECT_FALSE(k.derivable(Term::name("m")));
  EXPECT_FALSE(k.derivable(Term::name("key")));
}

TEST(Knowledge, SynthesisComposesKnownParts) {
  Knowledge k;
  k.learn(Term::name("a"));
  k.learn(Term::name("b"));
  EXPECT_TRUE(k.derivable(Term::pair(Term::name("a"), Term::name("b"))));
  EXPECT_TRUE(k.derivable(Term::senc(Term::name("a"), Term::name("b"))));
  EXPECT_TRUE(k.derivable(Term::mac(Term::name("a"), Term::name("b"))));
  // A MAC under an unknown key is not synthesizable.
  EXPECT_FALSE(k.derivable(Term::mac(Term::name("a"), Term::name("k_nas_int"))));
}

TEST(Knowledge, ReplayedCiphertextForwardableWithoutKey) {
  // The attacker can re-send what it saw even if it cannot open it.
  Knowledge k;
  Term blob = Term::senc(Term::name("m"), Term::name("key"));
  k.learn(blob);
  EXPECT_TRUE(k.derivable(blob));
  EXPECT_FALSE(k.derivable(Term::name("m")));
}

TEST(Knowledge, SaturationIsIncremental) {
  Knowledge k;
  k.learn(Term::senc(Term::name("m"), Term::name("key")));
  EXPECT_FALSE(k.derivable(Term::name("m")));
  k.learn(Term::name("key"));  // triggers re-saturation
  EXPECT_TRUE(k.derivable(Term::name("m")));
  EXPECT_GE(k.saturated().size(), 3u);
}

// --- LTE feasibility judgments -------------------------------------------------

mc::CommandMeta deliver(std::string message, std::int32_t prov,
                        std::set<std::string> atoms = {}) {
  mc::CommandMeta meta;
  meta.actor = mc::CommandMeta::Actor::kUe;
  meta.kind = mc::CommandMeta::Kind::kDeliver;
  meta.message = std::move(message);
  meta.provenance = prov;
  meta.atoms = std::move(atoms);
  return meta;
}

TEST(LteCrypto, GenuineAlwaysFeasible) {
  LteCryptoModel crypto;
  EXPECT_TRUE(crypto.judge_delivery(deliver("attach_accept", mc::kProvGenuine,
                                            {"mac_valid=1"}))
                  .feasible);
}

TEST(LteCrypto, FabricatedPlainFeasible) {
  LteCryptoModel crypto;
  StepVerdict v =
      crypto.judge_delivery(deliver("attach_reject", mc::kProvFabricated,
                                    {"sec_hdr=plain_nas", "cause=illegal_ue"}));
  EXPECT_TRUE(v.feasible);
}

TEST(LteCrypto, FabricatedProtectedInfeasible) {
  LteCryptoModel crypto;
  StepVerdict v = crypto.judge_delivery(
      deliver("attach_accept", mc::kProvFabricated,
              {"sec_hdr=integrity_protected_ciphered", "mac_valid=1"}));
  EXPECT_FALSE(v.feasible);
  EXPECT_NE(v.reason.find("mac"), std::string::npos);
}

TEST(LteCrypto, FabricatedWithIntegrityFlagInfeasible) {
  LteCryptoModel crypto;
  mc::CommandMeta meta = deliver("security_mode_complete", mc::kProvFabricated,
                                 {"integrity_ok=1"});
  meta.actor = mc::CommandMeta::Actor::kMme;
  EXPECT_FALSE(crypto.judge_delivery(meta).feasible);
}

TEST(LteCrypto, FabricatedValidResInfeasible) {
  LteCryptoModel crypto;
  mc::CommandMeta meta =
      deliver("authentication_response", mc::kProvFabricated, {"res_valid=1"});
  meta.actor = mc::CommandMeta::Actor::kMme;
  EXPECT_FALSE(crypto.judge_delivery(meta).feasible);
}

TEST(LteCrypto, ReplayedValidResInfeasible) {
  // RES is bound to the outstanding RAND.
  LteCryptoModel crypto;
  mc::CommandMeta meta =
      deliver("authentication_response", mc::kProvReplayed, {"res_valid=1"});
  meta.actor = mc::CommandMeta::Actor::kMme;
  EXPECT_FALSE(crypto.judge_delivery(meta).feasible);
}

TEST(LteCrypto, ReplayedProtectedMessageFeasible) {
  // A verbatim replay carries a valid MAC (only the COUNT is stale).
  LteCryptoModel crypto;
  EXPECT_TRUE(crypto.judge_delivery(
                  deliver("attach_accept", mc::kProvReplayed,
                          {"sec_hdr=integrity_protected_ciphered", "replay_accepted=1"}))
                  .feasible);
}

TEST(LteCrypto, StaleSqnReplayFeasibleWithoutFreshnessLimit) {
  // The P1 judgment, decided by running the real Annex C implementation.
  LteCryptoModel crypto;
  EXPECT_TRUE(crypto.stale_sqn_accepted());
  StepVerdict v = crypto.judge_delivery(deliver(
      "authentication_request", mc::kProvReplayed, {"sqn_ok=1", "sec_hdr=plain_nas"}));
  EXPECT_TRUE(v.feasible);
}

TEST(LteCrypto, StaleSqnReplayInfeasibleWithFreshnessLimit) {
  LteCryptoModel::Options options;
  options.usim_freshness_limit = true;
  LteCryptoModel crypto(options);
  EXPECT_FALSE(crypto.stale_sqn_accepted());
  StepVerdict v = crypto.judge_delivery(deliver(
      "authentication_request", mc::kProvReplayed, {"sqn_ok=1", "sec_hdr=plain_nas"}));
  EXPECT_FALSE(v.feasible);
}

TEST(LteCrypto, CounterResetReplayFeasible) {
  // The I3 transition is the implementation's own logged behavior.
  LteCryptoModel crypto;
  StepVerdict v = crypto.judge_delivery(
      deliver("authentication_request", mc::kProvReplayed,
              {"sqn_ok=1", "counter_reset=1", "sec_hdr=plain_nas"}));
  EXPECT_TRUE(v.feasible);
}

TEST(LteCrypto, AdversaryChannelActionsAlwaysFeasible) {
  LteCryptoModel crypto;
  mc::CommandMeta drop;
  drop.actor = mc::CommandMeta::Actor::kAdversary;
  drop.kind = mc::CommandMeta::Kind::kDrop;
  EXPECT_TRUE(crypto.judge_delivery(drop).feasible);
}

TEST(LteCrypto, AttackerKnowledgeExcludesKeys) {
  LteCryptoModel crypto;
  EXPECT_FALSE(crypto.attacker_knowledge().derivable(Term::name("k_nas_int")));
  EXPECT_FALSE(crypto.attacker_knowledge().derivable(Term::name("k_permanent")));
  EXPECT_TRUE(crypto.attacker_knowledge().derivable(Term::name("nas_pdu_skeleton")));
}

// --- Observational equivalence --------------------------------------------------

fsm::Fsm linkable_auth_fsm() {
  fsm::Fsm m;
  m.set_initial("R");
  fsm::Transition accept;
  accept.from = accept.to = "R";
  accept.conditions = {"authentication_request", "sqn_ok=1", "mac_valid=1"};
  accept.actions = {"authentication_response"};
  m.add_transition(accept);
  fsm::Transition sync;
  sync.from = sync.to = "R";
  sync.conditions = {"authentication_request", "sqn_ok=0", "mac_valid=1",
                     "failure_cause=synch_failure"};
  sync.actions = {"authentication_failure"};
  m.add_transition(sync);
  fsm::Transition macfail;
  macfail.from = macfail.to = "R";
  macfail.conditions = {"authentication_request", "mac_valid=0",
                        "failure_cause=mac_failure"};
  macfail.actions = {"authentication_failure"};
  m.add_transition(macfail);
  return m;
}

TEST(Equivalence, P2VictimDistinguishableByResponseType) {
  LteCryptoModel crypto;
  EquivalenceVerdict v =
      crypto.distinguishability(linkable_auth_fsm(), "authentication_request", {"sqn_ok=1"});
  EXPECT_TRUE(v.distinguishable);
  EXPECT_NE(v.victim_response.find("authentication_response"), std::string::npos);
  EXPECT_NE(v.other_response.find("authentication_failure"), std::string::npos);
}

TEST(Equivalence, PR06VictimDistinguishableByFailureCause) {
  // Both victim and others answer authentication_failure, but the cause
  // field differs — the 3G linkability attack's observable.
  LteCryptoModel crypto;
  EquivalenceVerdict v =
      crypto.distinguishability(linkable_auth_fsm(), "authentication_request", {"sqn_ok=0"});
  EXPECT_TRUE(v.distinguishable);
  EXPECT_NE(v.victim_response.find("synch_failure"), std::string::npos);
  EXPECT_NE(v.other_response.find("mac_failure"), std::string::npos);
}

TEST(Equivalence, NonVictimSpecificBranchIsUniform) {
  // A plain message every UE processes identically (P22's judgment).
  LteCryptoModel crypto;
  fsm::Fsm m;
  m.set_initial("R");
  fsm::Transition t;
  t.from = t.to = "R";
  t.conditions = {"detach_request", "sec_hdr=plain_nas"};
  t.actions = {"detach_accept"};
  m.add_transition(t);
  EquivalenceVerdict v = crypto.distinguishability(m, "detach_request", {});
  EXPECT_FALSE(v.distinguishable);
}

TEST(Equivalence, UniformNullResponsesNotDistinguishable) {
  // P11's judgment: victim and others both stay silent.
  LteCryptoModel crypto;
  fsm::Fsm m;
  m.set_initial("R");
  fsm::Transition t;
  t.from = t.to = "R";
  t.conditions = {"attach_accept", "replay_accepted=1", "state_ok=0"};
  t.actions = {fsm::kNullAction};
  m.add_transition(t);
  EquivalenceVerdict v = crypto.distinguishability(m, "attach_accept", {"replay_accepted=1"});
  EXPECT_FALSE(v.distinguishable);
}

TEST(Equivalence, MissingVictimBranchNotDistinguishable) {
  LteCryptoModel crypto;
  fsm::Fsm m;
  m.set_initial("R");
  EquivalenceVerdict v = crypto.distinguishability(m, "paging", {"identity_match=1"});
  EXPECT_FALSE(v.distinguishable);
}

TEST(Equivalence, I6SmcReplayDistinguishable) {
  LteCryptoModel crypto;
  fsm::Fsm m;
  m.set_initial("R");
  fsm::Transition victim;
  victim.from = victim.to = "R";
  victim.conditions = {"security_mode_command", "smc_replay=1", "mac_valid=1"};
  victim.actions = {"security_mode_complete"};
  m.add_transition(victim);
  fsm::Transition other;
  other.from = other.to = "R";
  other.conditions = {"security_mode_command", "mac_valid=0"};
  other.actions = {"security_mode_reject"};
  m.add_transition(other);
  EquivalenceVerdict v =
      crypto.distinguishability(m, "security_mode_command", {"smc_replay=1"});
  EXPECT_TRUE(v.distinguishable);
}

// --- One verifier shared by concurrent workers -----------------------------------

// The analysis supervisor judges every property with one LteCryptoModel.
// Four threads start together on one const instance, and each one's
// judgments must equal those of a separate instance made sequentially.
// Under ThreadSanitizer (the cpv_tsan ctest entry) this also checks that a
// judgment writes nothing the threads share.
TEST(CpvTsan, SharedVerifierJudgesConcurrently) {
  const mc::CommandMeta fabricated =
      deliver("security_mode_command", mc::kProvFabricated, {"mac_valid=1"});
  const mc::CommandMeta replayed =
      deliver("authentication_request", mc::kProvReplayed, {"sqn_ok=1"});
  const fsm::Fsm ue = linkable_auth_fsm();
  struct Judgments {
    StepVerdict fabricated;  // the derivable() path
    StepVerdict replayed;    // the Annex C path
    EquivalenceVerdict linkable;
  };
  auto judge = [&](const LteCryptoModel& crypto) {
    return Judgments{crypto.judge_delivery(fabricated), crypto.judge_delivery(replayed),
                     crypto.distinguishability(ue, "authentication_request", {"sqn_ok=1"})};
  };
  const Judgments expected = judge(LteCryptoModel());
  EXPECT_FALSE(expected.fabricated.feasible);
  EXPECT_TRUE(expected.replayed.feasible);
  EXPECT_TRUE(expected.linkable.distinguishable);

  const LteCryptoModel shared;
  constexpr int kThreads = 4;
  std::vector<Judgments> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      got[i] = judge(shared);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Judgments& g : got) {
    EXPECT_EQ(g.fabricated.feasible, expected.fabricated.feasible);
    EXPECT_EQ(g.fabricated.reason, expected.fabricated.reason);
    EXPECT_EQ(g.replayed.feasible, expected.replayed.feasible);
    EXPECT_EQ(g.replayed.reason, expected.replayed.reason);
    EXPECT_EQ(g.linkable.distinguishable, expected.linkable.distinguishable);
    EXPECT_EQ(g.linkable.victim_response, expected.linkable.victim_response);
    EXPECT_EQ(g.linkable.other_response, expected.linkable.other_response);
    EXPECT_EQ(g.linkable.reason, expected.linkable.reason);
  }
}

}  // namespace
}  // namespace procheck::cpv
