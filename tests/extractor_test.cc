// Model-extractor tests: Algorithm 1 on the paper's Fig. 3 running example,
// the ordered/substate-aware variant, block division, signature tables, and
// end-to-end extraction from real conformance logs.
#include <gtest/gtest.h>

#include <algorithm>

#include "extractor/extractor.h"
#include "profile_printer.h"
#include "testing/conformance.h"

namespace procheck::extractor {
namespace {

using instrument::LogRecord;
using instrument::TraceLogger;

Signatures fig3_signatures() {
  Signatures sigs;
  sigs.state_signatures = {"UE_REGISTERED_INIT", "UE_REGISTERED"};
  sigs.incoming_prefixes = {"recv_"};
  sigs.outgoing_prefixes = {"send_"};
  return sigs;
}

/// The Fig. 3(d) log of the paper's running example.
std::string fig3_log() {
  TraceLogger log;
  log.enter("air_msg_handler");
  log.local("msg_type", "ATTACH_ACCEPT");
  log.enter("recv_attach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  log.enter("send_attach_complete");
  log.local("mac_valid", 1);
  log.global("emm_state", "UE_REGISTERED");
  return log.text();
}

// --- Algorithm 1 (basic extraction) -------------------------------------------

TEST(Algorithm1, Fig3RunningExample) {
  ExtractionOptions opts;
  opts.include_condition_locals = false;  // the literal Algorithm 1
  fsm::Fsm m = extract_basic(instrument::parse_log(fig3_log()), fig3_signatures(), opts);
  ASSERT_EQ(m.transitions().size(), 1u);
  const fsm::Transition& t = m.transitions()[0];
  EXPECT_EQ(t.from, "UE_REGISTERED_INIT");
  EXPECT_EQ(t.to, "UE_REGISTERED");
  EXPECT_EQ(t.conditions, (std::set<fsm::Atom>{"attach_accept"}));
  EXPECT_EQ(t.actions, (std::set<fsm::Atom>{"attach_complete"}));
}

TEST(Algorithm1, ConditionLocalsIncludedWhenEnabled) {
  fsm::Fsm m = extract_basic(instrument::parse_log(fig3_log()), fig3_signatures(), {});
  ASSERT_EQ(m.transitions().size(), 1u);
  EXPECT_EQ(m.transitions()[0].conditions,
            (std::set<fsm::Atom>{"attach_accept", "mac_valid=1"}));
}

TEST(Algorithm1, NullActionWhenNoOutgoingMessage) {
  TraceLogger log;
  log.enter("recv_attach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  log.local("mac_valid", 0);
  fsm::Fsm m = extract_basic(log.records(), fig3_signatures(), {});
  ASSERT_EQ(m.transitions().size(), 1u);
  EXPECT_EQ(m.transitions()[0].actions, (std::set<fsm::Atom>{fsm::kNullAction}));
  EXPECT_EQ(m.transitions()[0].from, m.transitions()[0].to);  // self-loop
}

TEST(Algorithm1, MultipleBlocks) {
  TraceLogger log;
  log.enter("recv_attach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  log.enter("send_attach_complete");
  log.global("emm_state", "UE_REGISTERED");
  log.enter("recv_detach_request");
  log.global("emm_state", "UE_REGISTERED");
  log.enter("send_detach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  fsm::Fsm m = extract_basic(log.records(), fig3_signatures(), {});
  EXPECT_EQ(m.transitions().size(), 2u);
  EXPECT_EQ(m.conditions(), (std::set<fsm::Atom>{"attach_accept", "detach_request"}));
  EXPECT_EQ(m.actions(), (std::set<fsm::Atom>{"attach_complete", "detach_accept"}));
}

TEST(Algorithm1, InitialStateDefaultsToFirstObserved) {
  fsm::Fsm m = extract_basic(instrument::parse_log(fig3_log()), fig3_signatures(), {});
  EXPECT_EQ(m.initial(), "UE_REGISTERED_INIT");
  ExtractionOptions opts;
  opts.initial_state = "UE_REGISTERED";
  fsm::Fsm m2 = extract_basic(instrument::parse_log(fig3_log()), fig3_signatures(), opts);
  EXPECT_EQ(m2.initial(), "UE_REGISTERED");
}

TEST(Algorithm1, RecordsBeforeFirstIncomingIgnored) {
  TraceLogger log;
  log.global("emm_state", "UE_REGISTERED");  // no enclosing block
  log.enter("send_attach_complete");         // outgoing outside a block
  log.enter("recv_attach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  fsm::Fsm m = extract_basic(log.records(), fig3_signatures(), {});
  ASSERT_EQ(m.transitions().size(), 1u);
  EXPECT_EQ(m.transitions()[0].actions, (std::set<fsm::Atom>{fsm::kNullAction}));
}

TEST(Algorithm1, TestCaseMarkerClosesBlock) {
  TraceLogger log;
  log.enter("recv_attach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  log.test_case("TC_2");
  // Records after the marker but before the next incoming handler belong to
  // no block.
  log.global("emm_state", "UE_REGISTERED");
  log.enter("send_attach_complete");
  fsm::Fsm m = extract_basic(log.records(), fig3_signatures(), {});
  ASSERT_EQ(m.transitions().size(), 1u);
  EXPECT_EQ(m.transitions()[0].to, "UE_REGISTERED_INIT");
  EXPECT_EQ(m.transitions()[0].actions, (std::set<fsm::Atom>{fsm::kNullAction}));
}

TEST(Algorithm1, BlocksWithoutStatesSkipped) {
  TraceLogger log;
  log.enter("recv_attach_accept");
  log.local("mac_valid", 0);
  fsm::Fsm m = extract_basic(log.records(), fig3_signatures(), {});
  EXPECT_TRUE(m.transitions().empty());
}

// --- Ordered (substate-aware) extraction ----------------------------------------

TEST(ChainedExtraction, SplitsOnIntermediateStates) {
  Signatures sigs;
  sigs.state_signatures = {"REGISTERED", "ATTACH_NEEDED", "DEREGISTERED"};
  sigs.incoming_prefixes = {"recv_"};
  sigs.outgoing_prefixes = {"send_"};

  TraceLogger log;
  log.enter("recv_detach_request");
  log.global("emm_state", "REGISTERED");
  log.local("reattach_required", 1);
  log.global("emm_state", "ATTACH_NEEDED");
  log.enter("send_detach_accept");
  log.global("emm_state", "DEREGISTERED");

  fsm::Fsm m = extract(log.records(), sigs, {});
  ASSERT_EQ(m.transitions().size(), 2u);
  // Segment 1: the condition local guards the first hop; no action yet.
  const fsm::Transition& t1 = m.transitions()[0];
  EXPECT_EQ(t1.from, "REGISTERED");
  EXPECT_EQ(t1.to, "ATTACH_NEEDED");
  EXPECT_TRUE(t1.conditions.count("detach_request"));
  EXPECT_TRUE(t1.conditions.count("reattach_required=1"));
  EXPECT_EQ(t1.actions, (std::set<fsm::Atom>{fsm::kNullAction}));
  // Segment 2: the responsive action attaches to the hop it occurred in.
  const fsm::Transition& t2 = m.transitions()[1];
  EXPECT_EQ(t2.from, "ATTACH_NEEDED");
  EXPECT_EQ(t2.to, "DEREGISTERED");
  EXPECT_EQ(t2.actions, (std::set<fsm::Atom>{"detach_accept"}));
}

TEST(ChainedExtraction, SingleStateChangeYieldsOneTransition) {
  fsm::Fsm m = extract(instrument::parse_log(fig3_log()), fig3_signatures(), {});
  ASSERT_EQ(m.transitions().size(), 1u);
  EXPECT_EQ(m.transitions()[0].from, "UE_REGISTERED_INIT");
  EXPECT_EQ(m.transitions()[0].to, "UE_REGISTERED");
}

TEST(ChainedExtraction, ConsecutiveDuplicateStatesCollapsed) {
  TraceLogger log;
  log.enter("recv_attach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  log.global("emm_state", "UE_REGISTERED_INIT");  // re-logged at exit
  log.global("emm_state", "UE_REGISTERED");
  log.global("emm_state", "UE_REGISTERED");
  fsm::Fsm m = extract(log.records(), fig3_signatures(), {});
  EXPECT_EQ(m.transitions().size(), 1u);
}

TEST(ChainedExtraction, TrailingLocalsAttachToLastTransition) {
  TraceLogger log;
  log.enter("recv_attach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  log.global("emm_state", "UE_REGISTERED");
  log.local("guti_assigned", 1);  // after the final state observation
  fsm::Fsm m = extract(log.records(), fig3_signatures(), {});
  ASSERT_EQ(m.transitions().size(), 1u);
  EXPECT_TRUE(m.transitions()[0].conditions.count("guti_assigned=1"));
}

// --- Signature tables -------------------------------------------------------------

TEST(SignatureTables, UeProfilePrefixes) {
  Signatures cls = ue_signatures(ue::StackProfile::cls());
  EXPECT_EQ(cls.incoming_prefixes, (std::vector<std::string>{"recv_"}));
  EXPECT_EQ(cls.outgoing_prefixes, (std::vector<std::string>{"send_"}));
  Signatures oai = ue_signatures(ue::StackProfile::oai());
  EXPECT_EQ(oai.incoming_prefixes, (std::vector<std::string>{"emm_recv_"}));
  // The TS 24.301 state names are the state signatures.
  EXPECT_NE(std::find(cls.state_signatures.begin(), cls.state_signatures.end(),
                      "EMM_REGISTERED"),
            cls.state_signatures.end());
}

TEST(SignatureTables, MmeSignatures) {
  Signatures mme = mme_signatures();
  EXPECT_NE(std::find(mme.state_signatures.begin(), mme.state_signatures.end(),
                      "MME_REGISTERED"),
            mme.state_signatures.end());
}

// --- End-to-end: real conformance logs -----------------------------------------------

class ExtractFromConformance : public ::testing::TestWithParam<ue::StackProfile> {};

TEST_P(ExtractFromConformance, ProducesPlausibleMachine) {
  instrument::TraceLogger trace;
  testing::run_conformance(GetParam(), trace);
  ExtractionOptions opts;
  opts.initial_state = "EMM_DEREGISTERED";
  fsm::Fsm m = extract(trace.records(), ue_signatures(GetParam()), opts);

  fsm::Fsm::Stats stats = m.stats();
  EXPECT_GE(stats.states, 6u);
  EXPECT_GE(stats.transitions, 20u);
  EXPECT_GE(stats.conditions, 25u);
  // All states reachable from EMM_DEREGISTERED.
  EXPECT_EQ(m.reachable().size(), stats.states);
  // The attach flow's key transitions exist.
  EXPECT_TRUE(m.conditions().count("attach_accept"));
  EXPECT_TRUE(m.conditions().count("authentication_request"));
  EXPECT_TRUE(m.actions().count("attach_complete"));
  EXPECT_TRUE(m.actions().count("authentication_response"));
}

INSTANTIATE_TEST_SUITE_P(Profiles, ExtractFromConformance,
                         ::testing::Values(ue::StackProfile::cls(), ue::StackProfile::srsue(),
                                           ue::StackProfile::oai()),
                         [](const auto& info) { return info.param.name; });

TEST(ExtractFromConformanceLog, DeviationAtomsAppearOnlyForDeviantProfiles) {
  auto extract_flat = [](const ue::StackProfile& profile) {
    instrument::TraceLogger trace;
    testing::run_conformance(profile, trace);
    ExtractionOptions opts;
    opts.chain_substates = false;
    opts.initial_state = "EMM_DEREGISTERED";
    return extract_basic(trace.records(), ue_signatures(profile), opts);
  };
  fsm::Fsm cls = extract_flat(ue::StackProfile::cls());
  fsm::Fsm srs = extract_flat(ue::StackProfile::srsue());
  fsm::Fsm oai = extract_flat(ue::StackProfile::oai());

  // I1/I3 atoms: srs only. I2 atom: oai only.
  EXPECT_FALSE(cls.conditions().count("replay_accepted=1"));
  EXPECT_TRUE(srs.conditions().count("replay_accepted=1"));
  EXPECT_TRUE(srs.conditions().count("counter_reset=1"));
  EXPECT_FALSE(cls.conditions().count("plain_accepted_after_ctx=1"));
  EXPECT_TRUE(oai.conditions().count("plain_accepted_after_ctx=1"));
  EXPECT_FALSE(srs.conditions().count("plain_accepted_after_ctx=1"));
  // I6 atom: all profiles (the shared deviation).
  EXPECT_TRUE(cls.conditions().count("smc_replay=1"));
  EXPECT_TRUE(srs.conditions().count("smc_replay=1"));
  EXPECT_TRUE(oai.conditions().count("smc_replay=1"));
}

TEST(ExtractFromConformanceLog, ExtractionFromTextEqualsFromRecords) {
  instrument::TraceLogger trace;
  testing::run_conformance(ue::StackProfile::cls(), trace);
  Signatures sigs = ue_signatures(ue::StackProfile::cls());
  ExtractionOptions opts;
  opts.initial_state = "EMM_DEREGISTERED";
  fsm::Fsm from_records = extract(trace.records(), sigs, opts);
  fsm::Fsm from_text = extract(trace.text(), sigs, opts);
  EXPECT_EQ(from_records, from_text);
}

TEST(ExtractFromConformanceLog, MmeSideExtractionWorksToo) {
  // DESIGN.md §7: the extractor also applies to the network side when its
  // layer is instrumented.
  instrument::TraceLogger ue_trace;
  instrument::TraceLogger mme_trace;
  testing::Testbed tb(&ue_trace, &mme_trace);
  int conn = tb.add_ue(ue::StackProfile::cls(), testing::kTestImsi, testing::kTestKey);
  ASSERT_TRUE(testing::complete_attach(tb, conn));
  tb.ue_detach(conn);
  tb.run_until_quiet();

  fsm::Fsm mme_fsm = extract(mme_trace.records(), mme_signatures(), {});
  EXPECT_GE(mme_fsm.stats().states, 3u);
  EXPECT_TRUE(mme_fsm.conditions().count("attach_request"));
  EXPECT_TRUE(mme_fsm.actions().count("authentication_request"));
}

TEST(ExtractFromConformanceLog, ChainedIsRicherThanBasic) {
  // RQ2's premise: the substate-aware machine has at least as many states
  // and transitions as the flat one.
  instrument::TraceLogger trace;
  testing::run_conformance(ue::StackProfile::cls(), trace);
  Signatures sigs = ue_signatures(ue::StackProfile::cls());
  ExtractionOptions opts;
  opts.initial_state = "EMM_DEREGISTERED";
  fsm::Fsm rich = extract(trace.records(), sigs, opts);
  ExtractionOptions flat_opts = opts;
  flat_opts.chain_substates = false;
  fsm::Fsm flat = extract_basic(trace.records(), sigs, flat_opts);
  EXPECT_GE(rich.stats().states, flat.stats().states);
  EXPECT_GE(rich.stats().transitions, flat.stats().transitions);
}

// --- Recovery mode (noisy / corrupted logs) -----------------------------------

Signatures fig3_recovery_signatures() {
  Signatures sigs = fig3_signatures();
  sigs.state_variables = {"emm_state"};
  return sigs;
}

TEST(RecoveryMode, QuarantinesBlockWithCorruptStateValue) {
  TraceLogger log;
  log.enter("recv_attach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  log.enter("send_attach_complete");
  log.global("emm_state", "UE_REGISTERED");
  log.enter("recv_detach_request");
  log.global("emm_state", "UE_REGIST\x01RED");  // bit-flipped state value
  log.enter("send_detach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");

  ExtractionDiagnostics diag;
  ExtractionOptions opts;
  opts.recovery = true;
  opts.diagnostics = &diag;
  fsm::Fsm m = extract_basic(log.records(), fig3_recovery_signatures(), opts);

  // The clean attach block survives; the corrupted detach block does not.
  ASSERT_EQ(m.transitions().size(), 1u);
  EXPECT_EQ(m.transitions()[0].conditions.count("attach_accept"), 1u);
  EXPECT_EQ(diag.blocks_total, 2u);
  EXPECT_EQ(diag.blocks_extracted, 1u);
  ASSERT_EQ(diag.quarantined.size(), 1u);
  EXPECT_EQ(diag.quarantined[0].incoming, "detach_request");
  EXPECT_NE(diag.quarantined[0].reason.find("unrecognized state value"), std::string::npos);
}

TEST(RecoveryMode, WithoutRecoveryCorruptBlockIsSimplyStateless) {
  // The detector only *acts* in recovery mode: default extraction of the
  // same log must behave exactly as before (corrupt value is not a state
  // signature, so the block contributes nothing either way here).
  TraceLogger log;
  log.enter("recv_attach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  log.enter("recv_detach_request");
  log.global("emm_state", "GARBAGE");
  fsm::Fsm plain = extract_basic(log.records(), fig3_recovery_signatures(), {});
  ExtractionOptions opts;
  opts.recovery = true;
  fsm::Fsm recovered = extract_basic(log.records(), fig3_recovery_signatures(), opts);
  EXPECT_TRUE(plain == recovered);
}

TEST(RecoveryMode, BlockWithNoStateObservationIsDiagnosed) {
  TraceLogger log;
  log.enter("recv_attach_accept");
  log.global("emm_state", "UE_REGISTERED_INIT");
  log.enter("recv_service_reject");  // truncated: its state write was lost
  log.local("cause", 9);

  ExtractionDiagnostics diag;
  ExtractionOptions opts;
  opts.recovery = true;
  opts.diagnostics = &diag;
  extract_basic(log.records(), fig3_recovery_signatures(), opts);

  ASSERT_EQ(diag.quarantined.size(), 1u);
  EXPECT_EQ(diag.quarantined[0].incoming, "service_reject");
  EXPECT_NE(diag.quarantined[0].reason.find("no state observation"), std::string::npos);
}

TEST(RecoveryMode, PristineConformanceLogExtractsIdentically) {
  // On a clean real log, recovery mode must quarantine nothing and produce
  // the identical machine — it is a pure safety net.
  instrument::TraceLogger trace;
  testing::run_conformance(ue::StackProfile::cls(), trace);
  Signatures sigs = ue_signatures(ue::StackProfile::cls());
  ExtractionOptions opts;
  opts.initial_state = "EMM_DEREGISTERED";
  fsm::Fsm plain = extract(trace.records(), sigs, opts);

  ExtractionDiagnostics diag;
  ExtractionOptions rec_opts = opts;
  rec_opts.recovery = true;
  rec_opts.diagnostics = &diag;
  fsm::Fsm recovered = extract(trace.records(), sigs, rec_opts);

  EXPECT_TRUE(plain == recovered);
  // A clean log has no corrupt content to quarantine (state-less blocks may
  // still be *noted*, which is why the machines must stay identical).
  for (const auto& q : diag.quarantined) {
    EXPECT_EQ(q.reason.find("unrecognized state value"), std::string::npos) << q.incoming;
  }
  EXPECT_GT(diag.blocks_total, 0u);
  EXPECT_EQ(diag.blocks_extracted + diag.quarantined.size(), diag.blocks_total);
}

TEST(RecoveryMode, ChaoticLogNeverPoisonsTheModelSilently) {
  // End to end: extract from a corrupt-regime conformance log in recovery
  // mode. Every block either contributes transitions whose states are real
  // signatures, or lands in the quarantine list.
  instrument::TraceLogger trace;
  testing::ChannelConfig cfg;
  cfg.downlink.corrupt = 0.15;
  cfg.uplink.corrupt = 0.15;
  testing::run_conformance(ue::StackProfile::cls(), trace, &cfg);

  Signatures sigs = ue_signatures(ue::StackProfile::cls());
  ExtractionDiagnostics diag;
  ExtractionOptions opts;
  opts.initial_state = "EMM_DEREGISTERED";
  opts.recovery = true;
  opts.diagnostics = &diag;
  fsm::Fsm m = extract(trace.records(), sigs, opts);

  EXPECT_EQ(diag.blocks_extracted + diag.quarantined.size(), diag.blocks_total);
  EXPECT_GT(m.stats().transitions, 0u);
}

}  // namespace
}  // namespace procheck::extractor
