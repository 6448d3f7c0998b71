// Testbed tests: channels, the MITM interception point (drop / replace /
// capture), multi-UE support, and the white-box decode used by verdicts.
#include <gtest/gtest.h>

#include "testing/conformance.h"
#include "testing/testbed.h"
#include "ue/emm_state.h"

namespace procheck::testing {
namespace {

using nas::MsgType;
using nas::NasMessage;
using nas::NasPdu;

TEST(Testbed, AttachFlowCompletes) {
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  EXPECT_TRUE(complete_attach(tb, conn));
}

TEST(Testbed, CapturesBothDirections) {
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  ASSERT_TRUE(complete_attach(tb, conn));
  EXPECT_GE(tb.downlink_captures().size(), 3u);  // challenge, SMC, accept
  EXPECT_GE(tb.uplink_captures().size(), 4u);    // attach, auth resp, smc compl, complete
  for (const Capture& c : tb.downlink_captures()) EXPECT_TRUE(c.delivered);
}

TEST(Testbed, CapturesCarryClearView) {
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  ASSERT_TRUE(complete_attach(tb, conn));
  bool saw_attach_accept = false;
  for (const Capture& c : tb.downlink_captures()) {
    if (c.clear && c.clear->type == MsgType::kAttachAccept) saw_attach_accept = true;
  }
  EXPECT_TRUE(saw_attach_accept);  // despite being ciphered on the wire
}

TEST(Testbed, DropInterceptorRecordsUndelivered) {
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  tb.set_downlink_interceptor([](int, const NasPdu&) { return AdversaryAction::drop(); });
  tb.power_on(conn);
  tb.run_until_quiet();
  EXPECT_FALSE(ue::is_registered(tb.ue(conn).state()));
  ASSERT_FALSE(tb.downlink_captures().empty());
  EXPECT_FALSE(tb.downlink_captures().front().delivered);
}

TEST(Testbed, ReplaceInterceptorSubstitutesMessage) {
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  // Replace the first challenge with an attach_reject: UE deregisters.
  bool replaced = false;
  tb.set_downlink_interceptor([&replaced](int, const NasPdu&) {
    if (replaced) return AdversaryAction::pass();
    replaced = true;
    NasMessage reject(MsgType::kAttachReject);
    return AdversaryAction::replace(nas::encode_plain(reject));
  });
  tb.power_on(conn);
  tb.run_until_quiet();
  EXPECT_TRUE(ue::is_deregistered(tb.ue(conn).state()));
}

TEST(Testbed, ClearInterceptorsRestoresPassThrough) {
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  tb.set_downlink_interceptor([](int, const NasPdu&) { return AdversaryAction::drop(); });
  tb.clear_interceptors();
  EXPECT_TRUE(complete_attach(tb, conn));
}

TEST(Testbed, MultipleUesIndependentSessions) {
  Testbed tb;
  int a = tb.add_ue(ue::StackProfile::cls(), "001010000000001", 0xA);
  int b = tb.add_ue(ue::StackProfile::cls(), "001010000000002", 0xB);
  EXPECT_TRUE(complete_attach(tb, a));
  EXPECT_TRUE(complete_attach(tb, b));
  EXPECT_NE(tb.ue(a).guti(), tb.ue(b).guti());
  EXPECT_NE(tb.mme().guti(a), tb.mme().guti(b));
}

TEST(Testbed, InjectionReachesTheRightUe) {
  Testbed tb;
  int a = tb.add_ue(ue::StackProfile::cls(), "001010000000001", 0xA);
  int b = tb.add_ue(ue::StackProfile::cls(), "001010000000002", 0xB);
  ASSERT_TRUE(complete_attach(tb, a));
  ASSERT_TRUE(complete_attach(tb, b));
  NasMessage reject(MsgType::kAttachReject);
  tb.inject_downlink(a, nas::encode_plain(reject));
  tb.run_until_quiet();
  EXPECT_TRUE(ue::is_deregistered(tb.ue(a).state()));
  EXPECT_TRUE(ue::is_registered(tb.ue(b).state()));
}

TEST(Testbed, LastDownlinkOfTypeFindsCipheredMessages) {
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  ASSERT_TRUE(complete_attach(tb, conn));
  EXPECT_NE(tb.last_downlink_of_type(conn, MsgType::kAttachAccept), nullptr);
  EXPECT_NE(tb.last_downlink_of_type(conn, MsgType::kAuthenticationRequest), nullptr);
  EXPECT_EQ(tb.last_downlink_of_type(conn, MsgType::kPaging), nullptr);
}

TEST(Testbed, RunUntilQuietBoundsSteps) {
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  // A reflector that replays every downlink back as downlink forever would
  // loop; the step bound must terminate the run regardless.
  tb.set_downlink_interceptor([&tb, conn](int, const NasPdu& pdu) {
    tb.inject_downlink(conn, pdu);
    return AdversaryAction::pass();
  });
  tb.power_on(conn);
  // The bound must terminate the run AND report the livelock.
  EXPECT_FALSE(tb.run_until_quiet(50));
  EXPECT_EQ(tb.step_limit_hits(), 1u);
}

TEST(Testbed, RunUntilQuietReportsQuiescence) {
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  tb.power_on(conn);
  EXPECT_TRUE(tb.run_until_quiet());
  EXPECT_EQ(tb.step_limit_hits(), 0u);
  // Draining an already-quiet testbed is trivially quiescent.
  EXPECT_TRUE(tb.run_until_quiet());
}

TEST(Testbed, DelayedPdusDrainToQuiescence) {
  // A delay-heavy channel parks PDUs; aging them counts as progress and the
  // run only reports quiet once every parked PDU was delivered.
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  ChannelConfig cfg;
  cfg.downlink.delay = 1.0;  // every downlink is parked at least one step
  cfg.max_delay_steps = 2;
  tb.set_channel(cfg);
  tb.power_on(conn);
  EXPECT_TRUE(tb.run_until_quiet());
  EXPECT_EQ(tb.step_limit_hits(), 0u);
}

TEST(Testbed, QuiesceHorizonSkipBoundsIterationsByDeliveries) {
  // With only parked traffic left, the logical clock must jump to the next
  // release instead of burning one step per idle tick: a delay draw near the
  // step budget would otherwise read as a livelock.
  Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), kTestImsi, kTestKey);
  ChannelConfig cfg;
  cfg.downlink.delay = 1.0;  // every downlink parks
  cfg.max_delay_steps = 40;  // close to the tight budget below
  cfg.seed = 11;
  tb.set_channel(cfg);
  tb.power_on(conn);
  EXPECT_TRUE(tb.run_until_quiet(48)) << "idle delay ticks consumed the step budget";
  EXPECT_EQ(tb.step_limit_hits(), 0u);
}

TEST(Testbed, P2LinkabilityScenario) {
  // Fig. 6 end-to-end: replay the victim's captured challenge to every UE
  // in the cell; only the victim answers with authentication_response.
  Testbed tb;
  int victim = tb.add_ue(ue::StackProfile::cls(), "001010000000001", 0xA);
  int other = tb.add_ue(ue::StackProfile::cls(), "001010000000002", 0xB);
  ASSERT_TRUE(complete_attach(tb, victim));
  ASSERT_TRUE(complete_attach(tb, other));
  auto captured = capture_dropped_challenge(tb, victim);
  ASSERT_TRUE(captured.has_value());

  auto victim_resp = tb.ue(victim).handle_downlink(*captured);
  auto other_resp = tb.ue(other).handle_downlink(*captured);
  ASSERT_EQ(victim_resp.size(), 1u);
  ASSERT_EQ(other_resp.size(), 1u);
  auto vm = nas::decode_payload(victim_resp[0].payload);
  auto om = nas::decode_payload(other_resp[0].payload);
  ASSERT_TRUE(vm.has_value());
  ASSERT_TRUE(om.has_value());
  EXPECT_EQ(vm->type, MsgType::kAuthenticationResponse);   // victim: accepts
  EXPECT_EQ(om->type, MsgType::kAuthenticationFailure);    // others: MAC failure
  EXPECT_EQ(om->get_s("cause"), "mac_failure");
}

}  // namespace
}  // namespace procheck::testing
