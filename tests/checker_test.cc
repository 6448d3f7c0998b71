// Checker-layer tests: the 62-property catalog's shape, the LTEInspector
// baseline models, the RQ2 refinement claim, and the CEGAR loop on
// individual properties (spurious-counterexample pruning, verified vs
// attack verdicts, ablation with the freshness limit).
#include <gtest/gtest.h>

#include "checker/baseline.h"
#include "checker/cegar.h"
#include "checker/prochecker.h"
#include "checker/property.h"
#include "common/strings.h"
#include "fsm/refinement.h"
#include "profile_printer.h"

namespace procheck::checker {
namespace {

// Shared fixture: run the pipeline front half once per profile, and explore
// its threat model's reachable graph once for every property check.
struct ExtractedModels {
  fsm::Fsm rich;
  fsm::Fsm flat;
  threat::ThreatModel tm;
  mc::ReachGraph graph;
};

const ExtractedModels& models_for(const ue::StackProfile& profile) {
  static std::map<std::string, ExtractedModels> cache;
  auto it = cache.find(profile.name);
  if (it == cache.end()) {
    instrument::TraceLogger trace;
    testing::run_conformance(profile, trace);
    extractor::Signatures sigs = extractor::ue_signatures(profile);
    extractor::ExtractionOptions opts;
    opts.initial_state = "EMM_DEREGISTERED";
    ExtractedModels m;
    m.rich = extractor::extract(trace.records(), sigs, opts);
    extractor::ExtractionOptions flat_opts = opts;
    flat_opts.chain_substates = false;
    m.flat = extractor::extract_basic(trace.records(), sigs, flat_opts);
    it = cache.emplace(profile.name, std::move(m)).first;
    // Built in place: the graph refers to the cached threat model.
    it->second.tm = ProChecker::build_threat_model(it->second.flat);
    it->second.graph = mc::ReachGraph::build(it->second.tm.model);
  }
  return it->second;
}

const PropertyDef& property(const std::string& id) {
  for (const PropertyDef& p : property_catalog()) {
    if (p.id == id) return p;
  }
  ADD_FAILURE() << "no property " << id;
  static PropertyDef dummy;
  return dummy;
}

PropertyResult run_one(const ue::StackProfile& profile, const std::string& id) {
  const ExtractedModels& m = models_for(profile);
  cpv::LteCryptoModel::Options copts;
  copts.usim_freshness_limit = profile.sqn_freshness_limit.has_value();
  cpv::LteCryptoModel crypto(copts);
  return check_property(m.graph, m.flat, property(id), crypto);
}

// --- Catalog shape -------------------------------------------------------------

TEST(Catalog, SixtyTwoProperties) {
  const auto& catalog = property_catalog();
  EXPECT_EQ(catalog.size(), 62u);
  int security = 0;
  int privacy = 0;
  std::set<std::string> ids;
  for (const PropertyDef& p : catalog) {
    EXPECT_TRUE(ids.insert(p.id).second) << "duplicate id " << p.id;
    EXPECT_FALSE(p.description.empty());
    if (p.type == PropertyDef::Type::kSecurity) ++security;
    if (p.type == PropertyDef::Type::kPrivacy) ++privacy;
  }
  // "We extracted, formalized, and verified a total of 62 properties among
  // them 25 are related to privacy and 37 related to security."
  EXPECT_EQ(security, 37);
  EXPECT_EQ(privacy, 25);
}

TEST(Catalog, FourteenCommonWithLteInspector) {
  EXPECT_EQ(common_properties().size(), 14u);  // Table II
}

TEST(Catalog, AttackIdsCoverTableOne) {
  std::set<std::string> attack_ids;
  for (const PropertyDef& p : property_catalog()) {
    if (!p.attack_id.empty()) attack_ids.insert(p.attack_id);
  }
  for (const char* id : {"P1", "P2", "P3", "I1", "I2", "I3", "I4", "I5", "I6"}) {
    EXPECT_TRUE(attack_ids.count(id)) << id;
  }
  // 14 prior-attack rows PR01..PR14.
  for (int i = 1; i <= 14; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "PR%02d", i);
    EXPECT_TRUE(attack_ids.count(buf)) << buf;
  }
}

TEST(MetaMatchTest, MatchesOnAllCriteria) {
  mc::CommandMeta meta;
  meta.actor = mc::CommandMeta::Actor::kUe;
  meta.kind = mc::CommandMeta::Kind::kDeliver;
  meta.message = "attach_accept";
  meta.atoms = {"mac_valid=1", "sec_hdr=integrity_protected_ciphered"};
  meta.actions = {"attach_complete"};
  meta.from_state = "EMM_REGISTERED_INITIATED";
  meta.to_state = "EMM_REGISTERED";
  meta.provenance = mc::kProvGenuine;

  MetaMatch m;
  EXPECT_TRUE(m.matches_meta(meta));  // empty matcher matches all
  m.message = "attach_accept";
  m.atoms_all = {"mac_valid=1"};
  m.actions_any = {"attach_complete"};
  m.provenance_any = {mc::kProvGenuine};
  m.action_nonnull = true;
  m.state_changed = true;
  EXPECT_TRUE(m.matches_meta(meta));
  m.atoms_none = {"mac_valid=1"};
  EXPECT_FALSE(m.matches_meta(meta));
  m.atoms_none.clear();
  m.provenance_any = {mc::kProvReplayed};
  EXPECT_FALSE(m.matches_meta(meta));
}

TEST(MetaMatchTest, CompilesToACommandTablePlusPreStateEqualities) {
  const mc::Model& model = models_for(ue::StackProfile::cls()).tm.model;
  MetaMatch m;
  m.actor = mc::CommandMeta::Actor::kUe;
  m.message = "attach_accept";
  m.pre_equals = {{"flag_smc", "0"}};
  mc::EdgeMatch e = m.compile(model);
  ASSERT_EQ(e.commands.size(), model.commands().size());
  std::size_t matching = 0;
  for (const mc::Command& cmd : model.commands()) {
    EXPECT_EQ(e.commands[cmd.index] != 0, m.matches_meta(cmd.meta)) << cmd.label;
    matching += e.commands[cmd.index];
  }
  EXPECT_GT(matching, 0u);
  const int flag_smc = model.var("flag_smc");
  ASSERT_EQ(e.pre_equals.size(), 1u);
  EXPECT_EQ(e.pre_equals[0], std::make_pair(flag_smc, model.value_index(flag_smc, "0")));

  // A constraint on a variable or value the model lacks never holds: no
  // command matches, and a traversal of the graph finds no edge for it
  // rather than refusing the match.
  const mc::ReachGraph graph = mc::ReachGraph::build(model);
  for (const auto& unresolved : {std::make_pair("no_such_var", "0"),
                                 std::make_pair("flag_smc", "no_such_value")}) {
    m.pre_equals = {{unresolved.first, unresolved.second}};
    e = m.compile(model);
    for (std::uint8_t c : e.commands) EXPECT_EQ(c, 0);
    EXPECT_TRUE(e.pre_equals.empty());
    mc::CheckStats stats;
    std::optional<mc::CounterExample> cex;
    EXPECT_NO_THROW(cex = graph.check_edge_never(e, &stats)) << unresolved.first;
    EXPECT_FALSE(cex.has_value()) << unresolved.first;
    EXPECT_FALSE(stats.truncated()) << unresolved.first;
  }
}

// --- Baseline models -------------------------------------------------------------

TEST(Baseline, UeModelShape) {
  fsm::Fsm m = lteinspector_ue_model();
  EXPECT_EQ(m.initial(), "ue_deregistered");
  EXPECT_EQ(m.states().size(), 4u);  // the coarse four-state machine
  EXPECT_GE(m.transitions().size(), 14u);
  EXPECT_EQ(m.reachable().size(), 4u);
}

TEST(Baseline, MmeModelShape) {
  fsm::Fsm m = lteinspector_mme_model();
  EXPECT_EQ(m.initial(), "mme_deregistered");
  EXPECT_GE(m.states().size(), 6u);
  EXPECT_EQ(m.reachable().size(), m.states().size());
}

TEST(Baseline, StateMapCoversAllBaselineStates) {
  auto map = lteinspector_state_map();
  fsm::Fsm ue = lteinspector_ue_model();
  for (const std::string& s : ue.states()) {
    EXPECT_TRUE(map.count(s)) << s;
  }
}

// --- RQ2: the extracted model refines the baseline --------------------------------

class RefinementPerProfile : public ::testing::TestWithParam<ue::StackProfile> {};

TEST_P(RefinementPerProfile, ExtractedRefinesLteInspector) {
  const ExtractedModels& m = models_for(GetParam());
  fsm::RefinementReport r =
      fsm::check_refinement(lteinspector_ue_model(), m.rich, lteinspector_state_map());
  EXPECT_TRUE(r.refines) << r.summary();
  // The paper's RQ2 claims: strict supersets of conditions and actions, and
  // a mixture of direct, condition-refined, and split mappings.
  EXPECT_TRUE(r.conditions_strict_superset);
  EXPECT_TRUE(r.actions_strict_superset);
  EXPECT_GT(r.count(fsm::TransitionMatch::kConditionRefined), 0);
}

INSTANTIATE_TEST_SUITE_P(Profiles, RefinementPerProfile,
                         ::testing::Values(ue::StackProfile::cls(), ue::StackProfile::srsue(),
                                           ue::StackProfile::oai()),
                         [](const auto& info) { return info.param.name; });

TEST(Refinement, Fig7DetachSplitsAcrossTheAttachNeededSubstate) {
  const ExtractedModels& m = models_for(ue::StackProfile::cls());
  fsm::RefinementReport r =
      fsm::check_refinement(lteinspector_ue_model(), m.rich, lteinspector_state_map());
  bool found = false;
  for (const fsm::TransitionMapping& tm : r.transition_mappings) {
    if (tm.abstract.conditions.count("detach_request") == 0) continue;
    if (tm.abstract.actions.count("detach_accept") == 0) continue;
    found = true;
    EXPECT_EQ(tm.match, fsm::TransitionMatch::kSplit);
    // The split path passes through the new intermediate substate.
    bool through_substate = false;
    for (const fsm::Transition& t : tm.refined) {
      through_substate =
          through_substate || t.to == "EMM_DEREGISTERED_ATTACH_NEEDED" ||
          t.from == "EMM_DEREGISTERED_ATTACH_NEEDED";
    }
    EXPECT_TRUE(through_substate);
  }
  EXPECT_TRUE(found);
}

TEST(Refinement, Fig7SmcConditionRefined) {
  const ExtractedModels& m = models_for(ue::StackProfile::cls());
  fsm::RefinementReport r =
      fsm::check_refinement(lteinspector_ue_model(), m.rich, lteinspector_state_map());
  for (const fsm::TransitionMapping& tm : r.transition_mappings) {
    if (tm.abstract.conditions.count("security_mode_command") == 0) continue;
    EXPECT_EQ(tm.match, fsm::TransitionMatch::kConditionRefined);
    ASSERT_EQ(tm.refined.size(), 1u);
    // The refined condition carries the payload predicate of Fig. 7(i).
    EXPECT_TRUE(tm.refined[0].conditions.count("ue_sequence_number=0"));
  }
}

// --- CEGAR on individual properties -------------------------------------------------

TEST(Cegar, P1AttackFoundOnConformantStack) {
  PropertyResult r = run_one(ue::StackProfile::cls(), "S01");
  EXPECT_EQ(r.status, PropertyResult::Status::kAttack);
  ASSERT_TRUE(r.counterexample.has_value());
  // The trace must contain the replayed challenge delivery.
  bool replay_step = false;
  for (const mc::TraceStep& s : r.counterexample->steps) {
    replay_step = replay_step || (s.meta.message == "authentication_request" &&
                                  s.meta.provenance == mc::kProvReplayed);
  }
  EXPECT_TRUE(replay_step);
}

TEST(Cegar, P1VerifiedWithFreshnessLimit) {
  // The DESIGN.md ablation: enabling TS 33.102 Annex C.2.2's L closes P1.
  ue::StackProfile mitigated = ue::StackProfile::cls();
  mitigated.sqn_freshness_limit = 1;
  PropertyResult r = run_one(mitigated, "S01");
  EXPECT_EQ(r.status, PropertyResult::Status::kVerified);
  EXPECT_FALSE(r.refinements.empty());  // the CPV pruned the replay
  EXPECT_GT(r.iterations, 1);
}

TEST(Cegar, P2LinkabilityConfirmedByEquivalence) {
  PropertyResult r = run_one(ue::StackProfile::cls(), "P01");
  EXPECT_EQ(r.status, PropertyResult::Status::kAttack);
  ASSERT_TRUE(r.equivalence.has_value());
  EXPECT_TRUE(r.equivalence->distinguishable);
}

TEST(Cegar, P3LivenessViolatedByDrops) {
  PropertyResult r = run_one(ue::StackProfile::cls(), "S02");
  EXPECT_EQ(r.status, PropertyResult::Status::kAttack);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_GE(r.counterexample->loop_start, 0);  // a lasso
}

TEST(Cegar, I1OnlyOnDeviantProfiles) {
  EXPECT_EQ(run_one(ue::StackProfile::cls(), "S05").status,
            PropertyResult::Status::kVerified);
  EXPECT_EQ(run_one(ue::StackProfile::srsue(), "S05").status,
            PropertyResult::Status::kAttack);
  EXPECT_EQ(run_one(ue::StackProfile::oai(), "S05").status,
            PropertyResult::Status::kAttack);
}

TEST(Cegar, I3OnlyOnSrs) {
  EXPECT_EQ(run_one(ue::StackProfile::srsue(), "S07").status,
            PropertyResult::Status::kAttack);
  EXPECT_EQ(run_one(ue::StackProfile::oai(), "S07").status,
            PropertyResult::Status::kVerified);
}

TEST(Cegar, I4OnlyOnSrs) {
  EXPECT_EQ(run_one(ue::StackProfile::srsue(), "S08").status,
            PropertyResult::Status::kAttack);
  EXPECT_EQ(run_one(ue::StackProfile::cls(), "S08").status,
            PropertyResult::Status::kVerified);
}

TEST(Cegar, I5OnlyOnOai) {
  EXPECT_EQ(run_one(ue::StackProfile::oai(), "P02").status,
            PropertyResult::Status::kAttack);
  EXPECT_EQ(run_one(ue::StackProfile::cls(), "P02").status,
            PropertyResult::Status::kVerified);
}

TEST(Cegar, SpuriousCounterexamplesArePruned) {
  // S20 (fabricated attach_accept) requires CEGAR: the optimistic model
  // produces a spurious trace that the CPV refutes.
  PropertyResult r = run_one(ue::StackProfile::cls(), "S20");
  EXPECT_EQ(r.status, PropertyResult::Status::kVerified);
  EXPECT_GT(r.iterations, 1);
  EXPECT_FALSE(r.refinements.empty());
  EXPECT_TRUE(contains(r.refinements[0], "banned"));
}

TEST(Cegar, NotApplicableProperties) {
  PropertyResult r = run_one(ue::StackProfile::cls(), "P04");  // TMSI realloc
  EXPECT_EQ(r.status, PropertyResult::Status::kNotApplicable);
  PropertyResult r2 = run_one(ue::StackProfile::cls(), "S17");  // RAT downgrade
  EXPECT_EQ(r2.status, PropertyResult::Status::kNotApplicable);
}

TEST(Cegar, EquivalenceRefutesNonLinkableViolation) {
  // P11 on srs: the replayed attach_accept is accepted (MC + CPV agree) but
  // the response is observationally uniform, so the privacy property is
  // adjudicated verified.
  PropertyResult r = run_one(ue::StackProfile::srsue(), "P11");
  EXPECT_EQ(r.status, PropertyResult::Status::kVerified);
  ASSERT_TRUE(r.equivalence.has_value());
  EXPECT_FALSE(r.equivalence->distinguishable);
}

TEST(Cegar, StatsAreRecorded) {
  PropertyResult r = run_one(ue::StackProfile::cls(), "S01");
  EXPECT_GT(r.last_stats.states_explored, 0u);
  EXPECT_GE(r.total_seconds, 0.0);
  EXPECT_GE(r.iterations, 1);
}

// --- Budgets: exhaustion is inconclusive, never a fake verdict -----------------

TEST(CegarBudget, ExhaustedStateBoundIsInconclusive) {
  // S05 verifies on cls with the default budget; through the one-call form
  // a 3-state budget builds a graph of 3 states, truncated long before the
  // property's reachable fragment is covered, and claiming "verified" would
  // be unsound. The graph form reads no state cap: its graph is the bound.
  const ExtractedModels& m = models_for(ue::StackProfile::cls());
  cpv::LteCryptoModel::Options copts;
  cpv::LteCryptoModel crypto(copts);
  CegarOptions options;
  options.max_states = 3;
  PropertyResult r = check_property(m.tm, m.flat, property("S05"), crypto, options);
  EXPECT_EQ(r.status, PropertyResult::Status::kInconclusive);
  EXPECT_TRUE(r.last_stats.bound_hit);
  EXPECT_TRUE(contains(r.note, "budget exhausted"));
  EXPECT_LE(r.last_stats.states_explored, 3u);
  EXPECT_EQ(check_property(m.graph, m.flat, property("S05"), crypto, options).status,
            PropertyResult::Status::kVerified);
}

TEST(CegarBudget, ExhaustedWallClockIsInconclusive) {
  // Through the one-call form: the deadline stops the graph build itself.
  const ExtractedModels& m = models_for(ue::StackProfile::cls());
  cpv::LteCryptoModel::Options copts;
  cpv::LteCryptoModel crypto(copts);
  CegarOptions options;
  options.max_seconds = 1e-12;  // expires within the first iteration
  PropertyResult r = check_property(m.tm, m.flat, property("S05"), crypto, options);
  EXPECT_EQ(r.status, PropertyResult::Status::kInconclusive);
  EXPECT_TRUE(contains(r.note, "budget exhausted") || contains(r.note, "wall-clock"));
}

TEST(CegarBudget, DefaultBudgetsAreConclusiveAcrossTheCatalog) {
  // At the default budgets no property lands on the inconclusive path, so
  // the Table I reproduction is unaffected by the budget machinery. (The
  // integration suite pins the exact per-profile statuses; one profile
  // suffices here.)
  const ue::StackProfile profile = ue::StackProfile::cls();
  const ExtractedModels& m = models_for(profile);
  cpv::LteCryptoModel::Options copts;
  copts.usim_freshness_limit = profile.sqn_freshness_limit.has_value();
  cpv::LteCryptoModel crypto(copts);
  for (const PropertyDef& prop : property_catalog()) {
    PropertyResult r = check_property(m.graph, m.flat, prop, crypto, {});
    EXPECT_NE(r.status, PropertyResult::Status::kInconclusive)
        << profile.name << "/" << prop.id << ": " << r.note;
  }
}

// --- Parallel analysis: determinism contract ------------------------------------
//
// The fan-out in ProChecker::analyze must be invisible in the output: the
// jobs=N report equals the jobs=1 report field for field — statuses in
// catalog order, refinement strings, counterexample step labels, notes,
// and the attacks_found set. (DESIGN.md §10.)

void expect_reports_identical(const ImplementationReport& seq,
                              const ImplementationReport& par) {
  EXPECT_EQ(seq.attacks_found, par.attacks_found);
  ASSERT_EQ(seq.results.size(), par.results.size());
  for (std::size_t i = 0; i < seq.results.size(); ++i) {
    const PropertyResult& a = seq.results[i];
    const PropertyResult& b = par.results[i];
    EXPECT_EQ(a.property_id, b.property_id) << "catalog order differs at " << i;
    EXPECT_EQ(a.status, b.status) << a.property_id;
    EXPECT_EQ(a.attack_id, b.attack_id) << a.property_id;
    EXPECT_EQ(a.refinements, b.refinements) << a.property_id;
    EXPECT_EQ(a.note, b.note) << a.property_id;
    EXPECT_EQ(a.iterations, b.iterations) << a.property_id;
    EXPECT_EQ(a.total_states, b.total_states) << a.property_id;
    EXPECT_EQ(a.counterexample.has_value(), b.counterexample.has_value()) << a.property_id;
    if (a.counterexample && b.counterexample) {
      EXPECT_EQ(a.counterexample->loop_start, b.counterexample->loop_start) << a.property_id;
      ASSERT_EQ(a.counterexample->steps.size(), b.counterexample->steps.size())
          << a.property_id;
      for (std::size_t s = 0; s < a.counterexample->steps.size(); ++s) {
        EXPECT_EQ(a.counterexample->steps[s].label, b.counterexample->steps[s].label)
            << a.property_id << " step " << s;
        EXPECT_EQ(a.counterexample->steps[s].post, b.counterexample->steps[s].post)
            << a.property_id << " step " << s;
      }
    }
    EXPECT_EQ(a.equivalence.has_value(), b.equivalence.has_value()) << a.property_id;
    if (a.equivalence && b.equivalence) {
      EXPECT_EQ(a.equivalence->distinguishable, b.equivalence->distinguishable)
          << a.property_id;
      EXPECT_EQ(a.equivalence->reason, b.equivalence->reason) << a.property_id;
    }
  }
}

// Fast contract check over a property subset covering every verdict path
// (attack, CEGAR-verified, liveness lasso, linkability, not-applicable).
// This is the test the `tsan` ctest entry runs under ThreadSanitizer.
TEST(ParallelAnalysis, SubsetDeterminism) {
  AnalysisOptions options;
  options.only_properties = {"S01", "S02", "S05", "S20", "P01", "P04", "P11"};
  options.jobs = 1;
  ImplementationReport seq = ProChecker::analyze(ue::StackProfile::cls(), options);
  options.jobs = 4;
  ImplementationReport par = ProChecker::analyze(ue::StackProfile::cls(), options);
  EXPECT_EQ(seq.results.size(), options.only_properties.size());
  expect_reports_identical(seq, par);
}

TEST(ParallelAnalysis, FullCatalogMatchesSequential) {
  AnalysisOptions options;
  options.jobs = 1;
  ImplementationReport seq = ProChecker::analyze(ue::StackProfile::cls(), options);
  options.jobs = 4;
  ImplementationReport par = ProChecker::analyze(ue::StackProfile::cls(), options);
  EXPECT_EQ(seq.results.size(), property_catalog().size());
  expect_reports_identical(seq, par);
}

}  // namespace
}  // namespace procheck::checker
