// UE NAS stack tests: the normal procedure flows plus the per-profile
// deviation matrix of DESIGN.md §3 — the ground truth Table I detections
// are validated against.
#include <gtest/gtest.h>

#include "profile_printer.h"
#include "testing/conformance.h"
#include "testing/testbed.h"
#include "ue/emm_state.h"
#include "ue/profile.h"

namespace procheck::ue {
namespace {

using nas::MsgType;
using nas::NasMessage;
using nas::NasPdu;
using nas::SecHdr;
using testing::Testbed;

struct Rig {
  Testbed tb;
  int conn;
  explicit Rig(const StackProfile& profile)
      : conn(tb.add_ue(profile, testing::kTestImsi, testing::kTestKey)) {}
  UeNas& ue() { return tb.ue(conn); }
  bool attach() { return testing::complete_attach(tb, conn); }
};

// --- Profiles ---------------------------------------------------------------

TEST(Profiles, SignatureConventionsMatchThePaper) {
  EXPECT_EQ(StackProfile::cls().recv_prefix, "recv_");
  EXPECT_EQ(StackProfile::cls().send_prefix, "send_");
  // "srsLTE and OAI use the consistent signature of send_/parse_ and
  // emm_send_/emm_recv_" (paper §IX).
  EXPECT_EQ(StackProfile::srsue().recv_prefix, "parse_");
  EXPECT_EQ(StackProfile::srsue().send_prefix, "send_");
  EXPECT_EQ(StackProfile::oai().recv_prefix, "emm_recv_");
  EXPECT_EQ(StackProfile::oai().send_prefix, "emm_send_");
}

TEST(Profiles, DeviationMatrix) {
  StackProfile cls = StackProfile::cls();
  EXPECT_FALSE(cls.accept_replayed_protected);
  EXPECT_FALSE(cls.accept_plain_after_smc);
  EXPECT_FALSE(cls.accept_equal_sqn);
  EXPECT_FALSE(cls.keep_ctx_after_reject);
  EXPECT_FALSE(cls.plain_identity_response);

  StackProfile srs = StackProfile::srsue();
  EXPECT_TRUE(srs.accept_replayed_protected);
  EXPECT_TRUE(srs.reset_dl_counter_on_replay);
  EXPECT_TRUE(srs.accept_equal_sqn);
  EXPECT_TRUE(srs.keep_ctx_after_reject);

  StackProfile oai = StackProfile::oai();
  EXPECT_TRUE(oai.accept_last_replay);
  EXPECT_TRUE(oai.accept_plain_after_smc);
  EXPECT_TRUE(oai.plain_identity_response);
}

// --- EMM state helpers --------------------------------------------------------

TEST(EmmStateNames, RoundTrip) {
  for (int i = 0; i <= static_cast<int>(EmmState::kRegisteredAttemptingToUpdate); ++i) {
    auto s = static_cast<EmmState>(i);
    auto back = emm_state_from_name(to_string(s));
    ASSERT_TRUE(back.has_value()) << to_string(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(emm_state_from_name("NOT_A_STATE").has_value());
}

TEST(EmmStateNames, FamilyPredicates) {
  EXPECT_TRUE(is_registered(EmmState::kRegistered));
  EXPECT_TRUE(is_registered(EmmState::kRegisteredNormalService));
  EXPECT_FALSE(is_registered(EmmState::kRegisteredInitiated));
  EXPECT_TRUE(is_deregistered(EmmState::kDeregistered));
  EXPECT_TRUE(is_deregistered(EmmState::kDeregisteredAttachNeeded));
  EXPECT_FALSE(is_deregistered(EmmState::kDeregisteredInitiated));
}

// --- Attach flow --------------------------------------------------------------

class AttachPerProfile : public ::testing::TestWithParam<StackProfile> {};

TEST_P(AttachPerProfile, CompletesWithContextAndGuti) {
  Rig rig(GetParam());
  ASSERT_TRUE(rig.attach());
  EXPECT_TRUE(rig.ue().security().valid);
  EXPECT_NE(rig.ue().guti(), "none");
  EXPECT_EQ(rig.ue().authentications_completed(), 1);
  EXPECT_EQ(rig.ue().replays_accepted(), 0);
  // The ESM default bearer rode on the attach accept/complete.
  EXPECT_EQ(rig.ue().esm_bearer_id(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Profiles, AttachPerProfile,
                         ::testing::Values(StackProfile::cls(), StackProfile::srsue(),
                                           StackProfile::oai()),
                         [](const auto& info) { return info.param.name; });

TEST(UeAttach, PowerOnEntersRegisteredInitiated) {
  Rig rig(StackProfile::cls());
  auto out = rig.ue().power_on_attach();
  EXPECT_EQ(rig.ue().state(), EmmState::kRegisteredInitiated);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sec_hdr, SecHdr::kPlain);
}

TEST(UeAttach, ReplayedAttachAcceptDoesNotRewriteState) {
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  auto state_before = rig.ue().state();
  std::string guti_before = rig.ue().guti();
  const NasPdu* accept = rig.tb.last_downlink_of_type(rig.conn, MsgType::kAttachAccept);
  ASSERT_NE(accept, nullptr);
  rig.tb.inject_downlink(rig.conn, *accept);
  rig.tb.run_until_quiet();
  EXPECT_EQ(rig.ue().state(), state_before);
  EXPECT_EQ(rig.ue().guti(), guti_before);
}

// --- Replay policy (I1 / I3) ---------------------------------------------------

TEST(ReplayPolicy, ClsDiscardsReplays) {
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  const NasPdu* accept = rig.tb.last_downlink_of_type(rig.conn, MsgType::kAttachAccept);
  ASSERT_NE(accept, nullptr);
  rig.tb.inject_downlink(rig.conn, *accept);
  rig.tb.run_until_quiet();
  EXPECT_EQ(rig.ue().replays_accepted(), 0);
}

TEST(ReplayPolicy, SrsAcceptsReplayAndResetsCounter) {
  Rig rig(StackProfile::srsue());
  ASSERT_TRUE(rig.attach());
  const NasPdu* accept = rig.tb.last_downlink_of_type(rig.conn, MsgType::kAttachAccept);
  ASSERT_NE(accept, nullptr);
  auto count_before = rig.ue().last_accepted_dl_count();
  rig.tb.inject_downlink(rig.conn, *accept);
  rig.tb.run_until_quiet();
  EXPECT_EQ(rig.ue().replays_accepted(), 1);
  // I1: the downlink counter is reset to the replayed value.
  EXPECT_LE(rig.ue().last_accepted_dl_count().value_or(0), count_before.value_or(0));
}

TEST(ReplayPolicy, OaiAcceptsOnlyLastMessageReplay) {
  Rig rig(StackProfile::oai());
  ASSERT_TRUE(rig.attach());
  // Generate one more protected downlink so the attach_accept is stale.
  rig.tb.mme_configuration_update(rig.conn);
  rig.tb.run_until_quiet();
  const NasPdu* old_accept_ptr =
      rig.tb.last_downlink_of_type(rig.conn, MsgType::kAttachAccept);
  const NasPdu* last_cmd_ptr =
      rig.tb.last_downlink_of_type(rig.conn, MsgType::kConfigurationUpdateCommand);
  ASSERT_NE(old_accept_ptr, nullptr);
  ASSERT_NE(last_cmd_ptr, nullptr);
  // Copy before injecting: new captures may reallocate the capture vector.
  NasPdu old_accept = *old_accept_ptr;
  NasPdu last_cmd = *last_cmd_ptr;
  rig.tb.inject_downlink(rig.conn, old_accept);  // older than last: discarded
  rig.tb.run_until_quiet();
  EXPECT_EQ(rig.ue().replays_accepted(), 0);
  rig.tb.inject_downlink(rig.conn, last_cmd);  // the most recent: accepted
  rig.tb.run_until_quiet();
  EXPECT_EQ(rig.ue().replays_accepted(), 1);
}

// --- Plain-after-context (I2) ---------------------------------------------------

TEST(PlainPolicy, ClsIgnoresPlainGutiCommandAfterContext) {
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  NasMessage cmd(MsgType::kGutiReallocationCommand);
  cmd.set_s("guti", "guti-attacker");
  rig.tb.inject_downlink(rig.conn, nas::encode_plain(cmd));
  rig.tb.run_until_quiet();
  EXPECT_EQ(rig.ue().plain_accepted_after_ctx(), 0);
  EXPECT_NE(rig.ue().guti(), "guti-attacker");
}

TEST(PlainPolicy, OaiProcessesPlainGutiCommandAfterContext) {
  Rig rig(StackProfile::oai());
  ASSERT_TRUE(rig.attach());
  NasMessage cmd(MsgType::kGutiReallocationCommand);
  cmd.set_s("guti", "guti-attacker");
  rig.tb.inject_downlink(rig.conn, nas::encode_plain(cmd));
  rig.tb.run_until_quiet();
  EXPECT_GE(rig.ue().plain_accepted_after_ctx(), 1);
  EXPECT_EQ(rig.ue().guti(), "guti-attacker");  // I2: GUTI poisoned in plaintext
}

// --- Reject handling (I4) --------------------------------------------------------

TEST(RejectPolicy, ClsDeletesContextOnReject) {
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  NasMessage reject(MsgType::kAttachReject);
  reject.set_s("cause", "illegal_ue");
  rig.tb.inject_downlink(rig.conn, nas::encode_plain(reject));
  rig.tb.run_until_quiet();
  EXPECT_TRUE(is_deregistered(rig.ue().state()));
  EXPECT_FALSE(rig.ue().security().valid);
  EXPECT_EQ(rig.ue().guti(), "none");
  // Re-attach requires a fresh AKA run.
  rig.tb.power_on(rig.conn);
  rig.tb.run_until_quiet();
  EXPECT_TRUE(is_registered(rig.ue().state()));
  EXPECT_EQ(rig.ue().authentications_completed(), 2);
}

TEST(RejectPolicy, SrsKeepsContextAndBypassesSecurity) {
  Rig rig(StackProfile::srsue());
  ASSERT_TRUE(rig.attach());
  NasMessage reject(MsgType::kAttachReject);
  rig.tb.inject_downlink(rig.conn, nas::encode_plain(reject));
  rig.tb.run_until_quiet();
  EXPECT_TRUE(is_deregistered(rig.ue().state()));
  EXPECT_TRUE(rig.ue().security().valid);  // I4: context survives
  rig.tb.power_on(rig.conn);
  rig.tb.run_until_quiet();
  // Registered again without a second authentication run.
  EXPECT_TRUE(is_registered(rig.ue().state()));
  EXPECT_EQ(rig.ue().authentications_completed(), 1);
}

// --- Identity handling (I5) --------------------------------------------------------

TEST(IdentityPolicy, PlainRequestBeforeContextGetsImsi) {
  // Spec-mandated identification during initial attach.
  Rig rig(StackProfile::cls());
  rig.tb.power_on(rig.conn);  // do not run to completion
  NasMessage req(MsgType::kIdentityRequest);
  req.set_s("id_type", "imsi");
  auto out = rig.ue().handle_downlink(nas::encode_plain(req));
  ASSERT_EQ(out.size(), 1u);
  auto resp = nas::decode_payload(out[0].payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kIdentityResponse);
  EXPECT_EQ(resp->get_s("identity"), testing::kTestImsi);
}

TEST(IdentityPolicy, ClsIgnoresPlainRequestAfterContext) {
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  NasMessage req(MsgType::kIdentityRequest);
  req.set_s("id_type", "imsi");
  auto out = rig.ue().handle_downlink(nas::encode_plain(req));
  EXPECT_TRUE(out.empty());
}

TEST(IdentityPolicy, OaiLeaksImsiToPlainRequestAfterContext) {
  Rig rig(StackProfile::oai());
  ASSERT_TRUE(rig.attach());
  NasMessage req(MsgType::kIdentityRequest);
  req.set_s("id_type", "imsi");
  auto out = rig.ue().handle_downlink(nas::encode_plain(req));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sec_hdr, SecHdr::kPlain);  // I5: IMSI on the air in clear
  auto resp = nas::decode_payload(out[0].payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->get_s("identity"), testing::kTestImsi);
}

// --- Replayed authentication_request (P1) -----------------------------------------

TEST(AuthReplay, StaleChallengeDesynchronizesKeys) {
  // The P1 flow on the live stack (Fig. 4): the adversary elicits and
  // captures a challenge the victim never consumes, then replays it to the
  // registered victim.
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  auto captured = testing::capture_dropped_challenge(rig.tb, rig.conn);
  ASSERT_TRUE(captured.has_value());
  ASSERT_TRUE(is_registered(rig.ue().state()));
  int auth_before = rig.ue().authentications_completed();

  // The days-old challenge is replayed: the USIM accepts the stale SQN and
  // regenerates session keys, desynchronizing UE and MME.
  auto out = rig.ue().handle_downlink(*captured);
  ASSERT_EQ(out.size(), 1u);
  auto resp = nas::decode_payload(out[0].payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kAuthenticationResponse);
  EXPECT_EQ(rig.ue().authentications_completed(), auth_before + 1);
  EXPECT_FALSE(rig.ue().security().valid);  // key desync: old context discarded
}

TEST(AuthReplay, DesyncMakesUeDiscardLegitimateTraffic) {
  // The P1 impact: after the desync the UE keeps discarding genuine MME
  // messages until re-authentication.
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  auto captured = testing::capture_dropped_challenge(rig.tb, rig.conn);
  ASSERT_TRUE(captured.has_value());
  rig.tb.inject_downlink(rig.conn, *captured);
  rig.tb.run_until_quiet();
  int discards_before = rig.ue().protected_discards();
  rig.tb.mme_configuration_update(rig.conn);  // genuine protected traffic
  rig.tb.run_until_quiet();
  EXPECT_GT(rig.ue().protected_discards(), discards_before);
}

TEST(AuthReplay, FreshnessLimitMitigatesP1) {
  StackProfile mitigated = StackProfile::cls();
  mitigated.sqn_freshness_limit = 1;
  Rig rig(mitigated);
  ASSERT_TRUE(rig.attach());
  auto captured = testing::capture_dropped_challenge(rig.tb, rig.conn);
  ASSERT_TRUE(captured.has_value());
  // Age the captured challenge past the window L = 1.
  for (int i = 0; i < 2; ++i) {
    rig.tb.ue_detach(rig.conn);
    rig.tb.run_until_quiet();
    rig.tb.power_on(rig.conn);
    rig.tb.run_until_quiet();
  }

  auto out = rig.ue().handle_downlink(*captured);
  ASSERT_EQ(out.size(), 1u);
  auto resp = nas::decode_payload(out[0].payload);
  ASSERT_TRUE(resp.has_value());
  // With L enforced the stale challenge is refused (sync failure).
  EXPECT_EQ(resp->type, MsgType::kAuthenticationFailure);
  EXPECT_EQ(resp->get_s("cause"), "synch_failure");
  EXPECT_TRUE(rig.ue().security().valid);  // context untouched
}

// --- Misc handlers ------------------------------------------------------------------

TEST(UeHandlers, NetworkDetachClearsContext) {
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  rig.tb.mme_detach(rig.conn);
  rig.tb.run_until_quiet();
  EXPECT_EQ(rig.ue().state(), EmmState::kDeregistered);
  EXPECT_FALSE(rig.ue().security().valid);
}

TEST(UeHandlers, ServiceRequestRefusedWhenNotRegistered) {
  Rig rig(StackProfile::cls());
  auto out = rig.ue().trigger_service_request();
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(is_deregistered(rig.ue().state()));
}

TEST(UeHandlers, PagingForForeignIdentityIgnored) {
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  NasMessage page(MsgType::kPaging);
  page.set_s("identity", "guti-9999");
  auto out = rig.ue().handle_downlink(nas::encode_plain(page));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(is_registered(rig.ue().state()));
}

TEST(UeHandlers, UndecodablePduDiscarded) {
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  NasPdu garbage;
  garbage.sec_hdr = SecHdr::kIntegrityCiphered;
  garbage.count = 999;
  garbage.mac = 0xBAD;
  garbage.payload = {0x01, 0x02};
  auto out = rig.ue().handle_downlink(garbage);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(rig.ue().protected_discards(), 1);
}

TEST(UeHandlers, SmcReplayAnsweredDistinguishably) {
  // I6 surface on the live stack.
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  const NasPdu* smc = rig.tb.last_downlink_of_type(rig.conn, MsgType::kSecurityModeCommand);
  ASSERT_NE(smc, nullptr);
  auto out = rig.ue().handle_downlink(*smc);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GE(rig.ue().replays_accepted(), 1);
}

TEST(UeHandlers, PlainDetachRequestProcessed) {
  // The deployed standards gap behind the prior detach attacks.
  Rig rig(StackProfile::cls());
  ASSERT_TRUE(rig.attach());
  NasMessage req(MsgType::kDetachRequest);
  req.set_s("detach_type", "reattach_required");
  auto out = rig.ue().handle_downlink(nas::encode_plain(req));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(is_deregistered(rig.ue().state()));
}

TEST(UeHandlers, TraceDisabledStillFunctions) {
  // A null trace logger (uninstrumented build) must not change behavior.
  ue::UeNas ue(StackProfile::cls(), testing::kTestKey, testing::kTestImsi, nullptr);
  auto out = ue.power_on_attach();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(ue.state(), EmmState::kRegisteredInitiated);
}

}  // namespace
}  // namespace procheck::ue
