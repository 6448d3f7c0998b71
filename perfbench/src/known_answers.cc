#include "known_answers.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using procheck::checker::PropertyResult;
using procheck::diff::Finding;

char verdict_letter(PropertyResult::Status status) {
  switch (status) {
    case PropertyResult::Status::kVerified:
      return 'V';
    case PropertyResult::Status::kAttack:
      return 'A';
    case PropertyResult::Status::kNotApplicable:
      return 'N';
    case PropertyResult::Status::kInconclusive:
      return 'I';
  }
  return '?';
}

AnalysisExpectation cls_expectation() {
  AnalysisExpectation e;
  // Security properties S01..S37, then privacy properties P01..P25.
  const char* security = "AAAAVVVVAAAAAAAANAAVVVVVVVVVVVVVVAAAV";
  const char* privacy = "AVANAAAVVVVVVVVVVVVVVVVVV";
  for (int i = 0; security[i] != '\0'; ++i) {
    char id[16];
    std::snprintf(id, sizeof(id), "S%02d", i + 1);
    e.verdicts.emplace_back(id, security[i]);
  }
  for (int i = 0; privacy[i] != '\0'; ++i) {
    char id[16];
    std::snprintf(id, sizeof(id), "P%02d", i + 1);
    e.verdicts.emplace_back(id, privacy[i]);
  }
  e.table1_rows = {"I6",   "P1",   "P2",   "P3",   "PR01", "PR02", "PR03", "PR05",
                   "PR06", "PR07", "PR08", "PR10", "PR11", "PR12", "PR13", "PR14"};
  return e;
}

std::set<std::string> cls_timed_properties() {
  return {"S02", "S05", "S21", "S31", "P02", "P03", "P07"};
}

AnalysisExpectation cls_timed_expectation() {
  const std::set<std::string> timed = cls_timed_properties();
  AnalysisExpectation e;
  for (const auto& row : cls_expectation().verdicts) {
    if (timed.count(row.first) != 0) e.verdicts.push_back(row);
  }
  e.table1_rows = {"I6", "P3", "PR14"};
  return e;
}

std::vector<std::string> check_analysis(const std::vector<PropertyResult>& results,
                                        const std::set<std::string>& attacks_found,
                                        const AnalysisExpectation& expected) {
  std::vector<std::string> out;
  if (results.size() != expected.verdicts.size()) {
    out.push_back("expected " + std::to_string(expected.verdicts.size()) + " verdicts, got " +
                  std::to_string(results.size()));
    return out;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [id, letter] = expected.verdicts[i];
    const char got = verdict_letter(results[i].status);
    if (results[i].property_id != id || got != letter) {
      out.push_back("row " + std::to_string(i) + ": expected " + id + "=" + letter + ", got " +
                    results[i].property_id + "=" + got);
    }
  }
  if (attacks_found != expected.table1_rows) {
    std::string got;
    for (const std::string& row : attacks_found) got += row + " ";
    out.push_back("Table I rows differ: got " + got);
  }
  return out;
}

std::vector<ExpectedFinding> cls_oai_expectation() {
  return {
      {"S05", "I1", Finding::Class::kDivergent, "right"},
      {"S06", "I2", Finding::Class::kDivergent, "right"},
      {"S14", "PR10", Finding::Class::kCommon, "both"},
      {"P02", "I5", Finding::Class::kDivergent, "right"},
      {"P03", "I6", Finding::Class::kCommon, "both"},
      {"P07", "PR14", Finding::Class::kCommon, "both"},
      {"P24", "I2", Finding::Class::kDivergent, "right"},
  };
}

std::vector<std::string> check_diff(const procheck::diff::DiffReport& report,
                                    const std::vector<ExpectedFinding>& expected) {
  std::vector<std::string> out;
  if (report.inconclusive) out.push_back("diff inconclusive: " + report.note);
  if (report.findings.size() != expected.size()) {
    out.push_back("expected " + std::to_string(expected.size()) + " findings, got " +
                  std::to_string(report.findings.size()));
    return out;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Finding& f = report.findings[i];
    const ExpectedFinding& e = expected[i];
    if (f.property_id != e.property_id || f.attack_id != e.attack_id || f.cls != e.cls ||
        f.violates != e.violates) {
      out.push_back("finding " + std::to_string(i) + ": expected " + e.property_id + "[" +
                    e.attack_id + "] " + std::string(to_string(e.cls)) + "/" + e.violates +
                    ", got " + f.property_id + "[" + f.attack_id + "] " +
                    std::string(to_string(f.cls)) + "/" + f.violates);
    }
  }
  return out;
}

Tally analysis_tally(const procheck::checker::ImplementationReport& report,
                     std::size_t catalog_size) {
  Tally t;
  t.attempted = static_cast<long>(catalog_size);
  if (report.aborted) {
    t.failed = t.attempted;
    return t;
  }
  using procheck::checker::FailureClass;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const bool inconclusive = report.results[i].status == PropertyResult::Status::kInconclusive;
    const FailureClass f = i < report.outcomes.size() ? report.outcomes[i].failure : FailureClass::kNone;
    const bool contained = f != FailureClass::kNone && f != FailureClass::kCancelled;
    t.failed += inconclusive || contained ? 1 : 0;
  }
  return t;
}

Tally diff_tally(const procheck::diff::DiffReport& report) {
  Tally t;
  t.attempted = static_cast<long>(report.findings.size());
  if (report.inconclusive || t.attempted == 0) {
    t.attempted = t.failed = std::max(t.attempted, 1L);
    return t;
  }
  for (const Finding& f : report.findings) {
    t.failed += f.cls == Finding::Class::kInconclusive ? 1 : 0;
  }
  return t;
}

LearnAnswer learn_answer(const procheck::learner::LearnResult& result) {
  LearnAnswer a;
  a.membership_queries = result.membership_queries;
  const auto& m = result.machine;
  a.machine = "initial=" + std::to_string(m.initial) + " states=" + std::to_string(m.state_count);
  for (const auto& [key, value] : m.delta) {
    a.machine += ';';
    a.machine += std::to_string(key.first);
    a.machine += '-' + key.second + '/' + value.second + "->";
    a.machine += std::to_string(value.first);
  }
  return a;
}

}  // namespace perfbench
