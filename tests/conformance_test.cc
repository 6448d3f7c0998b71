// Conformance-suite tests: the per-profile pass/fail pattern (the deviant
// stacks fail exactly their deviation's security cases), handler coverage,
// and the information-rich log the suite produces for the extractor.
#include <gtest/gtest.h>

#include <map>

#include "instrument/trace_log.h"
#include "profile_printer.h"
#include "testing/conformance.h"

namespace procheck::testing {
namespace {

std::map<std::string, bool> results_by_id(const ConformanceReport& report) {
  std::map<std::string, bool> out;
  for (const TestResult& r : report.results) out[r.id] = r.passed;
  return out;
}

ConformanceReport run_for(const ue::StackProfile& profile) {
  instrument::TraceLogger trace;
  return run_conformance(profile, trace);
}

TEST(Suite, HasTheExpectedCases) {
  const auto& suite = conformance_suite();
  EXPECT_GE(suite.size(), 25u);
  std::set<std::string> ids;
  for (const TestCase& tc : suite) {
    EXPECT_TRUE(ids.insert(tc.id).second) << "duplicate id " << tc.id;
    EXPECT_FALSE(tc.title.empty());
  }
}

TEST(Conformance, ClsPassesAllButTheSharedI6Case) {
  ConformanceReport report = run_for(ue::StackProfile::cls());
  auto results = results_by_id(report);
  for (const auto& [id, passed] : results) {
    if (id == "TC_NAS_SEC_07") {
      // Every analyzed stack answers a replayed SMC (the I6 surface).
      EXPECT_FALSE(passed) << id;
    } else {
      EXPECT_TRUE(passed) << id;
    }
  }
}

TEST(Conformance, SrsFailsItsDeviationCases) {
  auto results = results_by_id(run_for(ue::StackProfile::srsue()));
  EXPECT_FALSE(results.at("TC_NAS_SEC_01"));  // I1: replay accepted
  EXPECT_FALSE(results.at("TC_NAS_SEC_03"));  // I3: equal SQN accepted
  EXPECT_FALSE(results.at("TC_NAS_SEC_04"));  // I4: context kept after reject
  EXPECT_TRUE(results.at("TC_NAS_SEC_02"));   // not an srs deviation
  EXPECT_TRUE(results.at("TC_NAS_SEC_05"));
  // Functional cases still pass.
  EXPECT_TRUE(results.at("TC_NAS_ATT_01"));
  EXPECT_TRUE(results.at("TC_NAS_GUTI_01"));
}

TEST(Conformance, OaiFailsItsDeviationCases) {
  auto results = results_by_id(run_for(ue::StackProfile::oai()));
  EXPECT_FALSE(results.at("TC_NAS_SEC_01"));  // I1: last-message replay accepted
  EXPECT_FALSE(results.at("TC_NAS_SEC_02"));  // I2: plain after context
  EXPECT_FALSE(results.at("TC_NAS_SEC_05"));  // I5: IMSI to plain identity request
  EXPECT_TRUE(results.at("TC_NAS_SEC_03"));   // not an oai deviation
  EXPECT_TRUE(results.at("TC_NAS_SEC_04"));
  EXPECT_TRUE(results.at("TC_NAS_ATT_01"));
}

class CoveragePerProfile : public ::testing::TestWithParam<ue::StackProfile> {};

TEST_P(CoveragePerProfile, AllHandlersExercised) {
  ConformanceReport report = run_for(GetParam());
  EXPECT_DOUBLE_EQ(report.handler_coverage, 1.0)
      << "unexercised: " << (report.unexercised.empty() ? "" : report.unexercised[0]);
  EXPECT_TRUE(report.unexercised.empty());
}

INSTANTIATE_TEST_SUITE_P(Profiles, CoveragePerProfile,
                         ::testing::Values(ue::StackProfile::cls(), ue::StackProfile::srsue(),
                                           ue::StackProfile::oai()),
                         [](const auto& info) { return info.param.name; });

class LogPerProfile : public ::testing::TestWithParam<ue::StackProfile> {};

// `analyze` and diff's profile: sides extract from the records; `extract
// --log` and diff's log: sides parse the text form. Both read one model
// because the text parses back to exactly the records, with no line shed.
TEST_P(LogPerProfile, TextParsesBackToTheRecords) {
  instrument::TraceLogger trace;
  run_conformance(GetParam(), trace);
  instrument::ParseStats stats;
  EXPECT_EQ(instrument::parse_log(trace.text(), &stats), trace.records());
  EXPECT_EQ(stats.records, trace.records().size());
  EXPECT_EQ(stats.skipped + stats.truncated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Profiles, LogPerProfile,
                         ::testing::Values(ue::StackProfile::cls(), ue::StackProfile::srsue(),
                                           ue::StackProfile::oai()),
                         [](const auto& info) { return info.param.name; });

TEST(Conformance, ExpectedHandlersUseProfilePrefixes) {
  auto handlers = expected_ue_handlers(ue::StackProfile::oai());
  bool saw_recv = false;
  bool saw_send = false;
  for (const std::string& h : handlers) {
    saw_recv = saw_recv || h == "emm_recv_attach_accept";
    saw_send = saw_send || h == "emm_send_attach_complete";
  }
  EXPECT_TRUE(saw_recv);
  EXPECT_TRUE(saw_send);
}

TEST(Conformance, LogContainsTestMarkersAndHandlerEntries) {
  instrument::TraceLogger trace;
  run_conformance(ue::StackProfile::cls(), trace);
  int test_markers = 0;
  int enters = 0;
  int globals = 0;
  int locals = 0;
  for (const instrument::LogRecord& rec : trace.records()) {
    switch (rec.kind) {
      case instrument::LogRecord::Kind::kTestCase:
        ++test_markers;
        break;
      case instrument::LogRecord::Kind::kEnter:
        ++enters;
        break;
      case instrument::LogRecord::Kind::kGlobal:
        ++globals;
        break;
      case instrument::LogRecord::Kind::kLocal:
        ++locals;
        break;
    }
  }
  EXPECT_EQ(test_markers, static_cast<int>(conformance_suite().size()));
  EXPECT_GT(enters, 100);
  EXPECT_GT(globals, 200);
  EXPECT_GT(locals, 50);
}

TEST(Conformance, LogStateValuesUseStandardNames) {
  instrument::TraceLogger trace;
  run_conformance(ue::StackProfile::cls(), trace);
  bool saw_registered = false;
  bool saw_deregistered = false;
  for (const instrument::LogRecord& rec : trace.records()) {
    if (rec.kind != instrument::LogRecord::Kind::kGlobal || rec.name != "emm_state") continue;
    saw_registered = saw_registered || rec.value == "EMM_REGISTERED";
    saw_deregistered = saw_deregistered || rec.value == "EMM_DEREGISTERED";
  }
  EXPECT_TRUE(saw_registered);
  EXPECT_TRUE(saw_deregistered);
}

TEST(Conformance, ReportCounts) {
  ConformanceReport report = run_for(ue::StackProfile::cls());
  EXPECT_EQ(report.total(), static_cast<int>(conformance_suite().size()));
  EXPECT_EQ(report.passed(), report.total() - 1);  // only TC_NAS_SEC_07
}

TEST(Conformance, RunsAreDeterministic) {
  instrument::TraceLogger t1, t2;
  ConformanceReport a = run_conformance(ue::StackProfile::srsue(), t1);
  ConformanceReport b = run_conformance(ue::StackProfile::srsue(), t2);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].passed, b.results[i].passed) << a.results[i].id;
  }
  EXPECT_EQ(t1.records(), t2.records());
}

}  // namespace
}  // namespace procheck::testing
