// Differential analysis suite (DESIGN.md §16): product-walk divergence
// enumeration, distinguishing-sequence minimality/validity, the pinned
// I1–I6 rediscovery between the seeded profiles, report canonicality across
// runs and jobs levels, the JSON report's shape, walk-cap degradation,
// and the remote-vs-in-process equivalence over live SUL servers.
//
// Monolithic on purpose: the profile sides (conformance run + extraction)
// are computed once and shared across every test case.
#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "diff/diff.h"
#include "diff/report_json.h"
#include "diff/sources.h"
#include "diff/triage.h"
#include "net/sul_server.h"
#include "ue/profile.h"

namespace procheck::diff {
namespace {

const Side& profile_side(const std::string& name) {
  static std::map<std::string, Side> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    SideResult r = resolve_side("profile:" + name);
    EXPECT_TRUE(r.ok) << r.error;
    it = cache.emplace(name, std::move(r.side)).first;
  }
  return it->second;
}

/// The triaged cls-vs-srsue report, computed once (it model-checks every
/// candidate property on both sides).
const DiffReport& cls_vs_srsue() {
  static const DiffReport report = [] {
    DiffReport r = diff_machines(profile_side("cls"), profile_side("srsue"));
    triage(r, profile_side("cls"), profile_side("srsue"));
    return r;
  }();
  return report;
}

const DiffReport& cls_vs_oai() {
  static const DiffReport report = [] {
    DiffReport r = diff_machines(profile_side("cls"), profile_side("oai"));
    triage(r, profile_side("cls"), profile_side("oai"));
    return r;
  }();
  return report;
}

const Finding* finding_of(const DiffReport& report, const std::string& property_id) {
  for (const Finding& f : report.findings) {
    if (f.property_id == property_id) return &f;
  }
  return nullptr;
}

/// Drives `machine` along a divergence sequence prefix; nullptr when some
/// input is not enabled.
const fsm::Transition* drive(const fsm::Fsm& machine, const std::vector<std::string>& inputs,
                             std::size_t count) {
  std::string state = machine.initial();
  const fsm::Transition* last = nullptr;
  for (std::size_t i = 0; i < count; ++i) {
    last = nullptr;
    for (const fsm::Transition* t : machine.from(state)) {
      if (input_key(t->conditions) == inputs[i]) {
        last = t;
        break;
      }
    }
    if (last == nullptr) return nullptr;
    state = last->to;
  }
  return last;
}

fsm::Transition make_transition(const std::string& from, const std::string& to,
                                std::set<fsm::Atom> conditions, std::set<fsm::Atom> actions) {
  fsm::Transition t;
  t.from = from;
  t.to = to;
  t.conditions = std::move(conditions);
  t.actions = std::move(actions);
  return t;
}

// --- Core product walk -------------------------------------------------------

TEST(DiffCore, SelfDiffIsEquivalent) {
  const Side& cls = profile_side("cls");
  DiffReport report = diff_machines(cls, cls);
  EXPECT_TRUE(report.equivalent);
  EXPECT_FALSE(report.inconclusive);
  EXPECT_TRUE(report.divergences.empty());
  EXPECT_EQ(report.exit_code(), 0);
  // Triage on an equivalent report is a no-op.
  triage(report, cls, cls);
  EXPECT_TRUE(report.findings.empty());
}

TEST(DiffCore, OutputMismatchIsDetectedAndWalkContinues) {
  Side left{"L", {}};
  Side right{"R", {}};
  for (Side* s : {&left, &right}) {
    s->machine.set_initial("A");
    s->machine.add_transition(make_transition("A", "B", {"m1"}, {"ack"}));
  }
  // Same input, same successor, different output — and a divergence beyond
  // it that only a continued walk can reach.
  left.machine.add_transition(make_transition("B", "C", {"m2"}, {"yes"}));
  right.machine.add_transition(make_transition("B", "C", {"m2"}, {"no"}));
  left.machine.add_transition(make_transition("C", "C", {"m3"}, {"tail"}));

  DiffReport report = diff_machines(left, right);
  ASSERT_EQ(report.divergences.size(), 2u);
  EXPECT_EQ(report.divergences[0].kind, DivergenceKind::kOutputMismatch);
  EXPECT_EQ(report.divergences[0].input, "m2");
  EXPECT_EQ(report.divergences[0].sequence, (std::vector<std::string>{"m1", "m2"}));
  EXPECT_EQ(report.divergences[1].kind, DivergenceKind::kMissingRight);
  EXPECT_EQ(report.divergences[1].input, "m3");
  EXPECT_EQ(report.exit_code(), 1);
}

TEST(DiffCore, ExtraStatesReachableOnlyPastDivergence) {
  Side left{"L", {}};
  Side right{"R", {}};
  for (Side* s : {&left, &right}) {
    s->machine.set_initial("A");
    s->machine.add_transition(make_transition("A", "B", {"m1"}, {"ack"}));
  }
  // Right grows a tail B -> C -> D the lockstep walk can never enter: the
  // missing-left divergence fires at (B|B) and C, D stay uncovered.
  right.machine.add_transition(make_transition("B", "C", {"m2"}, {"go"}));
  right.machine.add_transition(make_transition("C", "D", {"m3"}, {"go"}));

  DiffReport report = diff_machines(left, right);
  std::vector<DivergenceKind> kinds;
  for (const Divergence& d : report.divergences) kinds.push_back(d.kind);
  EXPECT_EQ(kinds, (std::vector<DivergenceKind>{DivergenceKind::kMissingLeft,
                                                DivergenceKind::kExtraStateRight,
                                                DivergenceKind::kExtraStateRight}));
  // The extra-state sequence is the shortest path in the owning machine.
  EXPECT_EQ(report.divergences[1].input, "C");
  EXPECT_EQ(report.divergences[1].sequence, (std::vector<std::string>{"m1", "m2"}));
  EXPECT_EQ(report.divergences[2].input, "D");
  EXPECT_EQ(report.divergences[2].sequence, (std::vector<std::string>{"m1", "m2", "m3"}));
}

TEST(DiffCore, NondeterministicSideIsInconclusive) {
  Side left{"L", {}};
  left.machine.set_initial("A");
  left.machine.add_transition(make_transition("A", "B", {"m1"}, {"ack"}));
  left.machine.add_transition(make_transition("A", "C", {"m1"}, {"ack"}));
  ASSERT_FALSE(left.machine.deterministic());

  DiffReport report = diff_machines(left, left);
  EXPECT_TRUE(report.inconclusive);
  EXPECT_FALSE(report.equivalent);
  EXPECT_NE(report.note.find("nondeterministic"), std::string::npos);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(DiffCore, WalkCapDegradesToStructuredInconclusive) {
  DiffOptions options;
  options.max_product_pairs = 1;
  DiffReport report =
      diff_machines(profile_side("cls"), profile_side("srsue"), options);
  // One pair cannot prove anything about machines this size: the report
  // must refuse, not claim equivalence.
  EXPECT_TRUE(report.inconclusive);
  EXPECT_NE(report.note.find("capped"), std::string::npos);
  EXPECT_EQ(report.exit_code(), 3);
}

TEST(DiffCore, DistinguishingSequencesReplayOnTheRealMachines) {
  const DiffReport& report = cls_vs_srsue();
  const fsm::Fsm& lm = profile_side("cls").machine;
  const fsm::Fsm& rm = profile_side("srsue").machine;
  ASSERT_FALSE(report.divergences.empty());
  for (const Divergence& d : report.divergences) {
    if (d.kind == DivergenceKind::kExtraStateLeft ||
        d.kind == DivergenceKind::kExtraStateRight) {
      continue;  // sequences live in the owning machine only
    }
    ASSERT_FALSE(d.sequence.empty());
    EXPECT_EQ(d.sequence.back(), d.input);
    // The common prefix must drive BOTH machines; the final input must be
    // enabled exactly as the divergence kind claims.
    const std::size_t prefix = d.sequence.size() - 1;
    if (prefix > 0) {
      EXPECT_NE(drive(lm, d.sequence, prefix), nullptr) << d.input;
      EXPECT_NE(drive(rm, d.sequence, prefix), nullptr) << d.input;
    }
    const fsm::Transition* lt = drive(lm, d.sequence, d.sequence.size());
    const fsm::Transition* rt = drive(rm, d.sequence, d.sequence.size());
    switch (d.kind) {
      case DivergenceKind::kOutputMismatch:
        ASSERT_NE(lt, nullptr);
        ASSERT_NE(rt, nullptr);
        EXPECT_NE(lt->actions, rt->actions);
        break;
      case DivergenceKind::kMissingLeft:
        EXPECT_EQ(lt, nullptr);
        ASSERT_NE(rt, nullptr);
        EXPECT_EQ(rt->label(), d.right_edge);
        break;
      case DivergenceKind::kMissingRight:
        ASSERT_NE(lt, nullptr);
        EXPECT_EQ(rt, nullptr);
        EXPECT_EQ(lt->label(), d.left_edge);
        break;
      default:
        break;
    }
  }
}

// --- The pinned cross-implementation story (Table I / §VII) ------------------

TEST(DiffTriage, ClsVsSrsueRediscoversSeededDeviations) {
  const DiffReport& report = cls_vs_srsue();
  EXPECT_FALSE(report.equivalent);
  EXPECT_EQ(report.exit_code(), 1);

  // srsue's seeded deviations, as pairwise divergences against the
  // reference stack: I1 (replayed attach_accept), I3 (counter-reset
  // authentication), I4 (out-of-state attach_accept handling).
  for (const auto& [property, attack] :
       std::map<std::string, std::string>{{"S05", "I1"}, {"S07", "I3"}, {"S08", "I4"}}) {
    const Finding* f = finding_of(report, property);
    ASSERT_NE(f, nullptr) << property;
    EXPECT_EQ(f->attack_id, attack);
    EXPECT_EQ(f->cls, Finding::Class::kDivergent) << property;
    EXPECT_EQ(f->violates, "right") << property;
    EXPECT_EQ(f->left_status, "verified");
    EXPECT_EQ(f->right_status, "attack");
  }
  // I6 (SMC replay) is seeded in EVERY profile, so it never pairwise
  // diverges — the shared-deviation triage tier must still surface it.
  const Finding* i6 = finding_of(report, "P03");
  ASSERT_NE(i6, nullptr);
  EXPECT_EQ(i6->attack_id, "I6");
  EXPECT_EQ(i6->cls, Finding::Class::kCommon);
  EXPECT_EQ(i6->violates, "both");

  // Every divergence the triage retained carries its property ids; at least
  // one divergence must be attributed to each divergent finding.
  for (const Finding& f : report.findings) {
    if (f.cls != Finding::Class::kDivergent) continue;
    bool attributed = false;
    for (const Divergence& d : report.divergences) {
      attributed = attributed ||
                   std::count(d.properties.begin(), d.properties.end(), f.property_id) > 0;
    }
    EXPECT_TRUE(attributed) << f.property_id;
  }
}

TEST(DiffTriage, ClsVsOaiRediscoversSeededDeviations) {
  const DiffReport& report = cls_vs_oai();
  EXPECT_EQ(report.exit_code(), 1);
  for (const auto& [property, attack] :
       std::map<std::string, std::string>{
           {"S05", "I1"}, {"S06", "I2"}, {"P24", "I2"}, {"P02", "I5"}}) {
    const Finding* f = finding_of(report, property);
    ASSERT_NE(f, nullptr) << property;
    EXPECT_EQ(f->attack_id, attack);
    EXPECT_EQ(f->cls, Finding::Class::kDivergent) << property;
    EXPECT_EQ(f->violates, "right") << property;
  }
  const Finding* i6 = finding_of(report, "P03");
  ASSERT_NE(i6, nullptr);
  EXPECT_EQ(i6->cls, Finding::Class::kCommon);
}

TEST(DiffTriage, UnionOfPairwiseDiffsCoversAllSixImplementationAttacks) {
  std::set<std::string> attacks;
  for (const DiffReport* report : {&cls_vs_srsue(), &cls_vs_oai()}) {
    for (const Finding& f : report->findings) {
      if (!f.attack_id.empty() && f.attack_id[0] == 'I') attacks.insert(f.attack_id);
    }
  }
  EXPECT_EQ(attacks,
            (std::set<std::string>{"I1", "I2", "I3", "I4", "I5", "I6"}));
}

// --- Canonicality ------------------------------------------------------------

TEST(DiffCanonical, ReportIsByteIdenticalAcrossRunsAndJobs) {
  const Side& left = profile_side("cls");
  const Side& right = profile_side("srsue");
  DiffReport base = diff_machines(left, right);

  TriageOptions sequential;
  sequential.jobs = 1;
  DiffReport a = base;
  triage(a, left, right, sequential);

  TriageOptions parallel;
  parallel.jobs = 4;
  DiffReport b = base;
  triage(b, left, right, parallel);

  EXPECT_EQ(a, b);
  EXPECT_EQ(a.render(), b.render());
  EXPECT_EQ(encode_report(a), encode_report(b));
  EXPECT_EQ(a.to_dot(), b.to_dot());
  // And against the shared fixture (a third, independent run).
  EXPECT_EQ(encode_report(a), encode_report(cls_vs_srsue()));
}

// --- JSON report -------------------------------------------------------------

TEST(DiffJson, TriagedReportIsStrictJson) {
  const DiffReport& report = cls_vs_srsue();
  const std::optional<Json> doc = json_parse(encode_report(report));
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is(Json::Type::kObject));
  EXPECT_EQ(doc->get_int("diff"), 1);
  EXPECT_EQ(doc->get_str("left"), report.left_name);
  EXPECT_EQ(doc->get_str("right"), report.right_name);
  const Json* divergences = doc->find("divergences");
  ASSERT_NE(divergences, nullptr);
  ASSERT_TRUE(divergences->is(Json::Type::kArray));
  EXPECT_EQ(divergences->arr.size(), report.divergences.size());
  const Json* findings = doc->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_TRUE(findings->is(Json::Type::kArray));
  ASSERT_EQ(findings->arr.size(), report.findings.size());
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    EXPECT_EQ(findings->arr[i].get_str("class"), to_string(f.cls)) << f.property_id;
    EXPECT_EQ(findings->arr[i].get_str("property"), f.property_id);
  }
}

// --- Side resolution ---------------------------------------------------------

TEST(DiffSources, RejectsMalformedSpecs) {
  for (const char* spec : {"", "cls", "profile:", "profile:unknown", "carrier:pigeon",
                           "remote:noport", "log:/nonexistent/path.log"}) {
    SideResult r = resolve_side(spec);
    EXPECT_FALSE(r.ok) << spec;
    EXPECT_FALSE(r.inconclusive) << spec;
    EXPECT_FALSE(r.error.empty()) << spec;
  }
}

TEST(DiffSources, UnreachableRemoteDegradesToInconclusive) {
  // Nothing listens here: the transport must degrade to a structured
  // inconclusive side (exit 3 at the CLI), not hang or crash.
  SideResult r = resolve_side("remote:127.0.0.1:1");
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.inconclusive);
  // The error names the transport's reason once.
  const std::string reason = "server unreachable";
  const std::size_t first = r.error.find(reason);
  ASSERT_NE(first, std::string::npos) << r.error;
  EXPECT_EQ(r.error.find(reason, first + 1), std::string::npos) << r.error;
}

// --- Remote two-SUL flow -----------------------------------------------------

TEST(DiffRemote, RemoteDiffMatchesInProcessDiff) {
  net::SulServer left_server(ue::StackProfile::cls());
  net::SulServer right_server(ue::StackProfile::srsue());
  ASSERT_TRUE(left_server.start());
  ASSERT_TRUE(right_server.start());

  SideResult rl = resolve_side("remote:127.0.0.1:" + std::to_string(left_server.port()));
  SideResult rr = resolve_side("remote:127.0.0.1:" + std::to_string(right_server.port()));
  ASSERT_TRUE(rl.ok) << rl.error;
  ASSERT_TRUE(rr.ok) << rr.error;

  SideResult ll = resolve_side("learn:cls");
  SideResult lr = resolve_side("learn:srsue");
  ASSERT_TRUE(ll.ok) << ll.error;
  ASSERT_TRUE(lr.ok) << lr.error;

  // Same machines, endpoint-independent.
  EXPECT_EQ(rl.side.machine, ll.side.machine);
  EXPECT_EQ(rr.side.machine, lr.side.machine);

  // Side names differ by construction (host:port vs profile name); after
  // normalizing them, the full reports must be byte-identical.
  for (SideResult* s : {&rl, &ll}) s->side.name = "left";
  for (SideResult* s : {&rr, &lr}) s->side.name = "right";
  DiffReport remote = diff_machines(rl.side, rr.side);
  triage(remote, rl.side, rr.side);
  DiffReport local = diff_machines(ll.side, lr.side);
  triage(local, ll.side, lr.side);
  EXPECT_EQ(remote, local);
  EXPECT_EQ(remote.render(), local.render());
  EXPECT_EQ(encode_report(remote), encode_report(local));
}

// --- Parallel triage under TSan ----------------------------------------------

// `ctest -L tsan` (the tsan preset) runs this family alone: the per-property
// fan-out across both sides with jobs > 1 must be race-free and reproduce
// the sequential report exactly. Small handcrafted machines keep the model-
// checking cost TSan-friendly.
TEST(DiffTsan, ParallelTriageMatchesSequential) {
  Side left{"left", {}};
  Side right{"right", {}};
  for (Side* s : {&left, &right}) {
    s->machine.set_initial("EMM_DEREGISTERED");
    s->machine.add_transition(make_transition(
        "EMM_DEREGISTERED", "EMM_REGISTERED_INITIATED", {"power_on_trigger"}, {"attach_request"}));
  }
  // One diverging predicate edge: enough to put candidates in front of the
  // supervised model checker on both sides.
  right.machine.add_transition(make_transition(
      "EMM_REGISTERED_INITIATED", "EMM_REGISTERED_NORMAL_SERVICE",
      {"attach_accept", "replay_accepted=1", "sec_hdr=integrity_protected_ciphered"},
      {"attach_complete"}));

  DiffReport base = diff_machines(left, right);
  ASSERT_FALSE(base.divergences.empty());

  TriageOptions sequential;
  sequential.jobs = 1;
  DiffReport a = base;
  triage(a, left, right, sequential);

  TriageOptions parallel;
  parallel.jobs = 4;
  DiffReport b = base;
  triage(b, left, right, parallel);

  EXPECT_EQ(a, b);
  EXPECT_EQ(encode_report(a), encode_report(b));
}

}  // namespace
}  // namespace procheck::diff
