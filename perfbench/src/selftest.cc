// Self-tests for the benchmark's own arithmetic and checks: the tail
// percentile rule, self-time and coverage arithmetic, the fail_rate bases,
// the build refusal, and that a wrong expected answer fails the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "known_answers.h"
#include "stamp.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

using procheck::checker::FailureClass;
using procheck::checker::ImplementationReport;
using procheck::checker::PropertyOutcome;
using procheck::checker::PropertyResult;
using procheck::diff::DiffReport;
using procheck::diff::Finding;

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0), 1);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 100), 4);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(200), 95);   // 10 beyond p95
  EXPECT_EQ(tail_percentile(199), 90);   // p95 leaves only 9
  EXPECT_EQ(tail_percentile(5000), 95);  // capped: p99 is never chosen
  EXPECT_EQ(tail_percentile(62), 75);    // one analysis' properties
  EXPECT_EQ(tail_percentile(20), 50);
  EXPECT_EQ(tail_percentile(19), 100);  // too few: report the maximum
  EXPECT_EQ(tail_percentile(2), 100);
  EXPECT_EQ(tail_percentile(0), 100);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const Interval span{0, 10};
  // Overlapping children (parallel workers) count once; a child running
  // past the parent is clipped to it.
  EXPECT_DOUBLE_EQ(covered_seconds(span, {{1, 3}, {2, 5}, {7, 8}, {9, 12}}), 6);
  EXPECT_DOUBLE_EQ(self_seconds(span, {{1, 3}, {2, 5}, {7, 8}, {9, 12}}), 4);
  EXPECT_DOUBLE_EQ(self_seconds(span, {}), 10);
  EXPECT_DOUBLE_EQ(self_seconds(span, {{4, 5}, {0, 10}}), 0);
}

TEST(SelfTime, TracerChildCoverage) {
  Tracer tracer;
  const int root = tracer.begin("root");
  const int child = tracer.begin("child", root);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tracer.end(child);
  tracer.end(root);
  EXPECT_GT(tracer.child_coverage(root), 0.9);
  EXPECT_NEAR(tracer.self_seconds(root), tracer.duration(root) - tracer.duration(child), 1e-9);
  EXPECT_NEAR(tracer.total_seconds("child"), tracer.duration(child), 1e-12);
  EXPECT_EQ(tracer.children(root).size(), 1u);
}

ImplementationReport clean_report(const AnalysisExpectation& e) {
  ImplementationReport r;
  for (const auto& [id, letter] : e.verdicts) {
    PropertyResult p;
    p.property_id = id;
    p.status = letter == 'A'   ? PropertyResult::Status::kAttack
               : letter == 'N' ? PropertyResult::Status::kNotApplicable
                               : PropertyResult::Status::kVerified;
    r.results.push_back(p);
    PropertyOutcome o;
    o.result = p;
    r.outcomes.push_back(o);
  }
  r.attacks_found = e.table1_rows;
  return r;
}

TEST(FailRate, AnalysisBaseIsTheCatalog) {
  const AnalysisExpectation e = cls_expectation();
  ImplementationReport r = clean_report(e);
  Tally t = analysis_tally(r, e.verdicts.size());
  EXPECT_EQ(t.attempted, 62);
  EXPECT_EQ(t.failed, 0);
  // Inconclusive and contained count once each, and once when both.
  r.results[0].status = PropertyResult::Status::kInconclusive;
  r.outcomes[0].failure = FailureClass::kDeadline;
  r.outcomes[1].failure = FailureClass::kException;
  r.outcomes[2].failure = FailureClass::kCancelled;  // interrupted, not failed
  t = analysis_tally(r, e.verdicts.size());
  EXPECT_EQ(t.failed, 2);
  EXPECT_DOUBLE_EQ(fail_rate(t.failed, t.attempted), 2.0 / 62);
  r.aborted = true;
  EXPECT_EQ(analysis_tally(r, e.verdicts.size()).failed, 62);
}

DiffReport clean_diff(const std::vector<ExpectedFinding>& expected) {
  DiffReport r;
  for (const ExpectedFinding& e : expected) {
    Finding f;
    f.property_id = e.property_id;
    f.attack_id = e.attack_id;
    f.cls = e.cls;
    f.violates = e.violates;
    r.findings.push_back(f);
  }
  return r;
}

TEST(FailRate, DiffBaseIsTheCandidates) {
  DiffReport r = clean_diff(cls_oai_expectation());
  Tally t = diff_tally(r);
  EXPECT_EQ(t.attempted, 7);
  EXPECT_EQ(t.failed, 0);
  r.findings[3].cls = Finding::Class::kInconclusive;
  EXPECT_EQ(diff_tally(r).failed, 1);
  r.inconclusive = true;
  EXPECT_EQ(diff_tally(r).failed, 7);
  EXPECT_EQ(diff_tally(DiffReport{}).attempted, 1);  // nothing to triage fails whole
  EXPECT_DOUBLE_EQ(fail_rate(0, 0), 0);
}

TEST(KnownAnswers, ClsTableMatchesTableOne) {
  const AnalysisExpectation e = cls_expectation();
  ASSERT_EQ(e.verdicts.size(), 62u);
  int verified = 0, attack = 0, na = 0;
  for (const auto& [id, letter] : e.verdicts) {
    verified += letter == 'V';
    attack += letter == 'A';
    na += letter == 'N';
  }
  EXPECT_EQ(verified, 38);
  EXPECT_EQ(attack, 22);
  EXPECT_EQ(na, 2);
  EXPECT_EQ(e.verdicts.front().first, "S01");
  EXPECT_EQ(e.verdicts[36].first, "S37");
  EXPECT_EQ(e.verdicts.back().first, "P25");
  EXPECT_EQ(e.table1_rows.size(), 16u);
}

TEST(KnownAnswers, TimedSubsetIsTheTableRestricted) {
  const AnalysisExpectation e = cls_timed_expectation();
  ASSERT_EQ(e.verdicts.size(), cls_timed_properties().size());
  std::string rows;
  for (const auto& [id, letter] : e.verdicts) rows += id + "=" + letter + " ";
  EXPECT_EQ(rows, "S02=A S05=V S21=V S31=V P02=V P03=A P07=A ");  // catalog order
  EXPECT_EQ(e.table1_rows, (std::set<std::string>{"I6", "P3", "PR14"}));
  const std::set<std::string> all_rows = cls_expectation().table1_rows;
  EXPECT_TRUE(std::includes(all_rows.begin(), all_rows.end(), e.table1_rows.begin(),
                            e.table1_rows.end()));
  const ImplementationReport r = clean_report(e);
  EXPECT_TRUE(check_analysis(r.results, r.attacks_found, e).empty());
  EXPECT_EQ(analysis_tally(r, e.verdicts.size()).attempted, 7);
}

TEST(KnownAnswers, WrongExpectedAnalysisFailsTheRun) {
  const AnalysisExpectation e = cls_expectation();
  const ImplementationReport r = clean_report(e);
  EXPECT_TRUE(check_analysis(r.results, r.attacks_found, e).empty());

  AnalysisExpectation wrong = e;
  wrong.verdicts[0].second = 'V';  // S01 is an attack on cls
  const auto mismatches = check_analysis(r.results, r.attacks_found, wrong);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find("S01"), std::string::npos);
  const std::string line = result_json(mismatches.empty(), 62, 0, Metrics{});
  EXPECT_EQ(line.rfind("{\"correct\": false,", 0), 0u);

  AnalysisExpectation wrong_rows = e;
  wrong_rows.table1_rows.erase("PR14");
  EXPECT_FALSE(check_analysis(r.results, r.attacks_found, wrong_rows).empty());
}

TEST(KnownAnswers, WrongExpectedDiffFailsTheRun) {
  const std::vector<ExpectedFinding> e = cls_oai_expectation();
  const DiffReport r = clean_diff(e);
  EXPECT_TRUE(check_diff(r, e).empty());

  std::vector<ExpectedFinding> wrong = e;
  wrong[2].cls = Finding::Class::kDivergent;  // S14 is shared, not divergent
  EXPECT_EQ(check_diff(r, wrong).size(), 1u);
  wrong = e;
  wrong.pop_back();
  EXPECT_FALSE(check_diff(r, wrong).empty());
}

TEST(KnownAnswers, LearnAnswerCoversMachineAndQueryCount) {
  procheck::learner::LearnResult a;
  a.membership_queries = 523;
  a.machine.state_count = 1;
  a.machine.delta[{0, "power_on"}] = {0, "attach_request"};
  procheck::learner::LearnResult b = a;
  EXPECT_EQ(learn_answer(a), learn_answer(b));
  b.membership_queries = 524;
  EXPECT_FALSE(learn_answer(a) == learn_answer(b));
  b = a;
  b.machine.delta[{0, "power_on"}] = {0, "null_action"};
  EXPECT_FALSE(learn_answer(a) == learn_answer(b));
}

TEST(BuildStamp, RefusesDebugAndSanitizerBuilds) {
  EXPECT_EQ(refusal_reason({"Release", "-O3 -DNDEBUG", "none"}), "");
  EXPECT_EQ(refusal_reason({"RelWithDebInfo", "-O2 -g", "none"}), "");
  EXPECT_NE(refusal_reason({"Debug", "-g", "none"}), "");
  EXPECT_NE(refusal_reason({"", "", "none"}), "");
  EXPECT_NE(refusal_reason({"Release", "-O3", "address"}), "");
  EXPECT_NE(refusal_reason({"RelWithDebInfo", "-O2", "thread"}), "");
  EXPECT_EQ(refusal_reason(this_build()), "");  // the self-test itself is built like the bench
}

TEST(ResultLine, CarriesEveryMetricWithItsUnit) {
  Metrics m;
  m.set("wall_s", 1.25, "s");
  m.set("items_per_s", 3.0, "1/s");
  m.set("wall_s", 1.5, "s");  // re-set replaces, keeping report order
  EXPECT_EQ(result_json(true, 10, 1, m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": "
            "{\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, "
            "\"items_per_s\": {\"value\": 3, \"unit\": \"1/s\"}}}");
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
}

}  // namespace
}  // namespace perfbench
