// End-to-end integration tests: the full ProChecker pipeline per stack
// profile must reproduce the paper's Table I detection matrix, and verified
// counterexamples must replay against the live stacks on the testbed (the
// paper's final validation step).
#include <gtest/gtest.h>

#include <set>

#include "checker/prochecker.h"
#include "graph_oracle.h"
#include "testing/conformance.h"
#include "testing/testbed.h"
#include "ue/emm_state.h"

namespace procheck::checker {
namespace {

const ImplementationReport& report_for(const ue::StackProfile& profile) {
  static std::map<std::string, ImplementationReport> cache;
  auto it = cache.find(profile.name);
  if (it == cache.end()) {
    it = cache.emplace(profile.name, ProChecker::analyze(profile)).first;
  }
  return it->second;
}

// --- Table I: the detection matrix ------------------------------------------------

TEST(TableOne, NewProtocolAttacksOnAllImplementations) {
  // P1–P3 are standards-level: detected on the closed-source profile and
  // both open-source profiles.
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const ImplementationReport& rep = report_for(profile);
    EXPECT_TRUE(rep.attacks_found.count("P1")) << profile.name;
    EXPECT_TRUE(rep.attacks_found.count("P2")) << profile.name;
    EXPECT_TRUE(rep.attacks_found.count("P3")) << profile.name;
  }
}

TEST(TableOne, ImplementationIssuesMatchThePaperPattern) {
  const ImplementationReport& cls = report_for(ue::StackProfile::cls());
  const ImplementationReport& srs = report_for(ue::StackProfile::srsue());
  const ImplementationReport& oai = report_for(ue::StackProfile::oai());

  // Table I: I1 ● srs ● oai; I2 ○ srs ● oai; I3 ● srs ○ oai;
  //          I4 ● srs ○ oai; I5 ○ srs ● oai; I6 ● both.
  EXPECT_TRUE(srs.attacks_found.count("I1"));
  EXPECT_TRUE(oai.attacks_found.count("I1"));
  EXPECT_FALSE(cls.attacks_found.count("I1"));

  EXPECT_TRUE(oai.attacks_found.count("I2"));
  EXPECT_FALSE(srs.attacks_found.count("I2"));

  EXPECT_TRUE(srs.attacks_found.count("I3"));
  EXPECT_FALSE(oai.attacks_found.count("I3"));

  EXPECT_TRUE(srs.attacks_found.count("I4"));
  EXPECT_FALSE(oai.attacks_found.count("I4"));

  EXPECT_TRUE(oai.attacks_found.count("I5"));
  EXPECT_FALSE(srs.attacks_found.count("I5"));

  EXPECT_TRUE(cls.attacks_found.count("I6"));
  EXPECT_TRUE(srs.attacks_found.count("I6"));
  EXPECT_TRUE(oai.attacks_found.count("I6"));
}

TEST(TableOne, PriorAttacksRediscovered) {
  // 12 of the 14 prior rows are applicable (PR04/PR09 are the paper's "-"
  // rows) and detected on every profile.
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const ImplementationReport& rep = report_for(profile);
    for (const char* id : {"PR01", "PR02", "PR03", "PR05", "PR06", "PR07", "PR08",
                           "PR10", "PR11", "PR12", "PR13", "PR14"}) {
      EXPECT_TRUE(rep.attacks_found.count(id)) << profile.name << " " << id;
    }
    EXPECT_FALSE(rep.attacks_found.count("PR04")) << profile.name;
    EXPECT_FALSE(rep.attacks_found.count("PR09")) << profile.name;
  }
}

TEST(TableOne, EveryAttackVerdictMapsToARow) {
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    for (const PropertyResult& r : report_for(profile).results) {
      if (r.status == PropertyResult::Status::kAttack) {
        EXPECT_FALSE(r.attack_id.empty())
            << profile.name << " " << r.property_id << " is an unmapped finding";
      }
    }
  }
}

TEST(Pipeline, AllSixtyTwoPropertiesChecked) {
  const ImplementationReport& rep = report_for(ue::StackProfile::cls());
  EXPECT_EQ(rep.results.size(), 62u);
  EXPECT_EQ(rep.verified_count() + rep.attack_count() + rep.not_applicable_count(), 62);
  EXPECT_EQ(rep.not_applicable_count(), 2);  // the "-" rows
}

TEST(Pipeline, NoSearchTruncatesAtTheDefaultBudget) {
  // The default state cap covers the largest search on any profile (srsue's
  // P07 and S36 liveness products pass 1M nodes), so no default-budget
  // verdict rests on a truncated search.
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const ImplementationReport& rep = report_for(profile);
    EXPECT_FALSE(rep.graph_stats.truncated()) << profile.name;
    for (const PropertyResult& r : rep.results) {
      EXPECT_FALSE(r.last_stats.truncated()) << profile.name << " " << r.property_id;
    }
  }
}

TEST(Pipeline, ConformanceCoverageIsComplete) {
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const ImplementationReport& rep = report_for(profile);
    EXPECT_DOUBLE_EQ(rep.conformance.handler_coverage, 1.0) << profile.name;
    EXPECT_GT(rep.log_records, 500u) << profile.name;
    EXPECT_GT(rep.extraction_seconds, 0.0);
  }
}

TEST(Pipeline, AblationFreshnessLimitRemovesP1P2) {
  ue::StackProfile mitigated = ue::StackProfile::cls();
  mitigated.sqn_freshness_limit = 1;
  AnalysisOptions options;
  options.only_properties = {"S01", "P01", "S05"};
  ImplementationReport rep = ProChecker::analyze(mitigated, options);
  EXPECT_FALSE(rep.attacks_found.count("P1"));
  EXPECT_FALSE(rep.attacks_found.count("P2"));
}

// --- Testbed replay of verified counterexamples (the paper's validation) ------------

TEST(TestbedReplay, P1ServiceDisruptionOnLiveStack) {
  testing::Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), testing::kTestImsi, testing::kTestKey);
  ASSERT_TRUE(testing::complete_attach(tb, conn));
  auto captured = testing::capture_dropped_challenge(tb, conn);
  ASSERT_TRUE(captured.has_value());
  int auth_before = tb.ue(conn).authentications_completed();
  tb.inject_downlink(conn, *captured);
  tb.run_until_quiet();
  // Service disruption: keys desynchronized, UE discards genuine traffic,
  // and the UE was forced through another power-consuming AKA run.
  EXPECT_GT(tb.ue(conn).authentications_completed(), auth_before);
  int discards_before = tb.ue(conn).protected_discards();
  tb.mme_guti_reallocation(conn);
  tb.run_until_quiet();
  EXPECT_GT(tb.ue(conn).protected_discards(), discards_before);
}

TEST(TestbedReplay, P3SelectiveDenialPreventsGutiRotation) {
  testing::Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), testing::kTestImsi, testing::kTestKey);
  ASSERT_TRUE(testing::complete_attach(tb, conn));
  std::string guti_before = tb.ue(conn).guti();
  // The MITM selectively drops every GUTI reallocation command.
  tb.set_downlink_interceptor([&tb, conn](int c, const nas::NasPdu& pdu) {
    auto msg = tb.decode(c, pdu, /*downlink=*/true);
    if (msg && msg->type == nas::MsgType::kGutiReallocationCommand) {
      return testing::AdversaryAction::drop();
    }
    return testing::AdversaryAction::pass();
  });
  tb.mme_guti_reallocation(conn);
  tb.run_until_quiet();
  tb.tick(mme::MmeNas::kTimerPeriod * (mme::MmeNas::kMaxRetransmissions + 1));
  // The MME aborted after five tries; both sides keep the old GUTI — the
  // victim stays trackable.
  EXPECT_EQ(tb.mme().procedures_aborted(), 1);
  EXPECT_EQ(tb.ue(conn).guti(), guti_before);
  EXPECT_EQ(tb.mme().guti(conn), guti_before);
}

TEST(TestbedReplay, I2PlainInjectionOnOai) {
  testing::Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::oai(), testing::kTestImsi, testing::kTestKey);
  ASSERT_TRUE(testing::complete_attach(tb, conn));
  nas::NasMessage cmd(nas::MsgType::kGutiReallocationCommand);
  cmd.set_s("guti", "guti-attacker");
  tb.inject_downlink(conn, nas::encode_plain(cmd));
  tb.run_until_quiet();
  EXPECT_EQ(tb.ue(conn).guti(), "guti-attacker");
}

TEST(TestbedReplay, I6SmcReplayLinksVictimAcrossUes) {
  testing::Testbed tb;
  int victim = tb.add_ue(ue::StackProfile::cls(), "001010000000001", 0xA);
  int other = tb.add_ue(ue::StackProfile::cls(), "001010000000002", 0xB);
  ASSERT_TRUE(testing::complete_attach(tb, victim));
  ASSERT_TRUE(testing::complete_attach(tb, other));
  const nas::NasPdu* smc =
      tb.last_downlink_of_type(victim, nas::MsgType::kSecurityModeCommand);
  ASSERT_NE(smc, nullptr);
  auto victim_resp = tb.ue(victim).handle_downlink(*smc);
  auto other_resp = tb.ue(other).handle_downlink(*smc);
  ASSERT_EQ(victim_resp.size(), 1u);
  ASSERT_EQ(other_resp.size(), 1u);
  // Victim completes; others reject — distinguishable on the air.
  auto om = nas::decode_payload(other_resp[0].payload);
  ASSERT_TRUE(om.has_value());
  EXPECT_EQ(om->type, nas::MsgType::kSecurityModeReject);
  EXPECT_NE(victim_resp[0].sec_hdr, nas::SecHdr::kPlain);
}

// --- Counterexamples are paths of the model (an oracle outside the kernel) ----
//
// Every ATTACK trace of every profile, replayed step by step on mc::Model
// itself: guards and updates evaluated directly, properties matched through
// MetaMatch — none of the graph build, traversal or compiled predicates the
// checker used to find the trace.

const PropertyDef& property(const std::string& id) {
  for (const PropertyDef& p : property_catalog()) {
    if (p.id == id) return p;
  }
  ADD_FAILURE() << "no property " << id;
  static PropertyDef none;
  return none;
}

bool edge_matches(const MetaMatch& match, const mc::Model& model, const mc::State& pre,
                  const mc::Command& cmd) {
  if (!match.matches_meta(cmd.meta)) return false;
  for (const auto& [var_name, value_name] : match.pre_equals) {
    const int var = model.var(var_name);
    if (var < 0 || pre[var] != model.value_index(var, value_name)) return false;
  }
  return true;
}

/// The command `step` fired from `pre`: labelled step.label, enabled in
/// `pre`, and producing exactly step.post. Null when no command does.
const mc::Command* fired(const mc::Model& model, const mc::State& pre, const mc::TraceStep& step) {
  for (const mc::Command& cmd : model.commands()) {
    if (cmd.label != step.label || !cmd.guard.eval(pre)) continue;
    mc::State next = pre;
    for (const mc::Assign& a : cmd.updates) next[a.var] = a.src >= 0 ? pre[a.src] : a.value;
    if (next == step.post) return &cmd;
  }
  return nullptr;
}

TEST(Graph, AttackTracesAreModelPaths) {
  std::size_t traces = 0, lassos = 0;
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const ImplementationReport& rep = report_for(profile);
    const threat::ThreatModel tm = ProChecker::build_threat_model(rep.checking_model);
    const mc::Model& model = tm.model;
    for (const PropertyResult& r : rep.results) {
      if (r.status != PropertyResult::Status::kAttack) continue;
      const std::string where = profile.name + "/" + r.property_id;
      ASSERT_TRUE(r.counterexample.has_value()) << where;
      const mc::CounterExample& cex = *r.counterexample;
      const PropertyDef& prop = property(r.property_id);
      std::set<std::string> banned;  // "banned <label>: <reason>"
      for (const std::string& ref : r.refinements) {
        banned.insert(ref.substr(7, ref.find(": ") - 7));
      }
      ++traces;

      mc::State pre = model.initial();
      bool pending = false;
      mc::State loop_entry = pre;
      bool pending_throughout = true;
      for (std::size_t i = 0; i < cex.steps.size(); ++i) {
        const mc::TraceStep& step = cex.steps[i];
        const bool in_loop = cex.loop_start >= 0 && static_cast<int>(i) >= cex.loop_start;
        if (in_loop && static_cast<int>(i) == cex.loop_start) {
          loop_entry = pre;
          pending_throughout = pending;
        }
        if (step.label == "(stutter)") {
          // Deadlock: every command enabled here was banned by refinement.
          ASSERT_TRUE(in_loop) << where << " step " << i;
          EXPECT_EQ(step.post, pre) << where << " step " << i;
          for (const mc::Command& cmd : model.commands()) {
            if (cmd.guard.eval(pre)) {
              EXPECT_TRUE(banned.count(cmd.label)) << where << " step " << i << ": " << cmd.label;
            }
          }
        } else {
          const mc::Command* cmd = fired(model, pre, step);
          ASSERT_NE(cmd, nullptr) << where << " step " << i << " (" << step.label
                                  << ") is not an enabled command yielding its post-state";
          EXPECT_FALSE(banned.count(step.label)) << where << " step " << i << " was refined away";
          if (prop.kind == PropertyDef::Kind::kResponse) {
            const bool trig = edge_matches(prop.trigger, model, pre, *cmd);
            const bool resp = edge_matches(prop.response, model, pre, *cmd);
            pending = (pending || trig) && !resp;
          } else if (i + 1 == cex.steps.size()) {
            EXPECT_TRUE(edge_matches(prop.bad, model, pre, *cmd))
                << where << ": the final edge does not violate the property";
          }
        }
        if (in_loop) pending_throughout = pending_throughout && pending;
        pre = step.post;
      }
      if (prop.kind == PropertyDef::Kind::kResponse) {
        ASSERT_GE(cex.loop_start, 0) << where;
        ++lassos;
        EXPECT_EQ(pre, loop_entry) << where << ": the lasso does not close on its loop start";
        EXPECT_TRUE(pending_throughout) << where << ": the obligation is answered inside the loop";
      } else {
        EXPECT_EQ(cex.loop_start, -1) << where;
        EXPECT_FALSE(cex.steps.empty()) << where;
      }
    }
  }
  EXPECT_EQ(traces, 22u + 25u + 26u);  // Table I: every attack of every profile
  EXPECT_GT(lassos, 0u);
}

TEST(Graph, StoredEdgesMatchInterpretedGuards) {
  // The build enables commands through its compiled guard table; every
  // edge of every profile's graph must be what the guards, interpreted
  // directly, allow — in command order.
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const threat::ThreatModel tm =
        ProChecker::build_threat_model(report_for(profile).checking_model);
    const mc::ReachGraph graph = mc::ReachGraph::build(tm.model);
    ASSERT_FALSE(graph.stats().truncated()) << profile.name;
    EXPECT_EQ(graph.expanded(), graph.states()) << profile.name;
    EXPECT_EQ(mc::first_edge_mismatch(graph), "") << profile.name;
  }
}

// FNV-1a over everything a traversal reads of a graph: its sizes, each
// state's values, each expanded state's first edge, and each edge's target
// and command.
std::uint64_t graph_digest(const mc::ReachGraph& g) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  mix(g.states());
  mix(g.expanded());
  mix(g.edges());
  for (std::uint32_t id = 0; id < g.states(); ++id) {
    for (std::int32_t value : g.state(id)) mix(static_cast<std::uint32_t>(value));
  }
  for (std::uint32_t id = 0; id < g.expanded(); ++id) mix(g.edge_begin(id));
  for (std::size_t e = 0; e < g.edges(); ++e) {
    mix(g.target(e));
    mix(g.command(e));
  }
  return h;
}

TEST(Graph, ProfileGraphsArePinned) {
  // Every profile's graph, state for state and edge for edge in both
  // orders. A change to how the graph is built or stored must keep these
  // digests; a change to the threat model or a profile moves them on
  // purpose.
  const std::pair<ue::StackProfile, std::uint64_t> pinned[] = {
      {ue::StackProfile::cls(), 0xF8C6BA7B07E8B088ull},
      {ue::StackProfile::srsue(), 0xE4597F0E6ED159BDull},
      {ue::StackProfile::oai(), 0x27161CB579FC1B65ull},
  };
  for (const auto& [profile, digest] : pinned) {
    const threat::ThreatModel tm =
        ProChecker::build_threat_model(report_for(profile).checking_model);
    const mc::ReachGraph graph = mc::ReachGraph::build(tm.model);
    EXPECT_EQ(graph_digest(graph), digest) << profile.name;
  }
}

TEST(Pipeline, ReportsAreDeterministic) {
  AnalysisOptions options;
  options.only_properties = {"S01", "S05", "S07"};
  ImplementationReport a = ProChecker::analyze(ue::StackProfile::srsue(), options);
  ImplementationReport b = ProChecker::analyze(ue::StackProfile::srsue(), options);
  EXPECT_EQ(a.attacks_found, b.attacks_found);
  EXPECT_EQ(a.checking_model, b.checking_model);
}

}  // namespace
}  // namespace procheck::checker
