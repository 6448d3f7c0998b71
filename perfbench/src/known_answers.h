// Known answers every workload is checked against. A mismatch is a wrong
// output: the run reports "correct": false and exits nonzero.
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checker/cegar.h"
#include "checker/prochecker.h"
#include "diff/diff.h"
#include "learner/lstar.h"

namespace perfbench {

/// Verdict letters: V verified, A attack, N not applicable, I inconclusive.
char verdict_letter(procheck::checker::PropertyResult::Status status);

struct AnalysisExpectation {
  /// (property id, verdict letter) for all 62 properties, in catalog order.
  std::vector<std::pair<std::string, char>> verdicts;
  /// Table I rows the attacks map to.
  std::set<std::string> table1_rows;
};

/// The cls profile: 38 verified / 22 attack / 2 n/a / 0 inconclusive.
AnalysisExpectation cls_expectation();

/// The properties one timed analyze-cls operation checks: the heaviest
/// security property, three more safety properties and three privacy ones,
/// 3 attacks and 4 verified on cls.
std::set<std::string> cls_timed_properties();

/// cls_expectation() restricted to cls_timed_properties(), with the Table I
/// rows those properties' attacks map to (I6 P3 PR14).
AnalysisExpectation cls_timed_expectation();

/// Empty when `results`/`attacks_found` match; otherwise one line per
/// difference.
std::vector<std::string> check_analysis(const std::vector<procheck::checker::PropertyResult>& results,
                                        const std::set<std::string>& attacks_found,
                                        const AnalysisExpectation& expected);

struct ExpectedFinding {
  std::string property_id;
  std::string attack_id;
  procheck::diff::Finding::Class cls = procheck::diff::Finding::Class::kDivergent;
  std::string violates;
};

/// profile:cls vs profile:oai after triage: four divergent findings (oai
/// violates) and three shared ones, in catalog order.
std::vector<ExpectedFinding> cls_oai_expectation();

std::vector<std::string> check_diff(const procheck::diff::DiffReport& report,
                                    const std::vector<ExpectedFinding>& expected);

/// The fail_rate base of one operation: what was attempted, and how much of
/// it did not reach a clean result.
struct Tally {
  long attempted = 0;
  long failed = 0;
};

/// One analysis attempts every catalog property (`catalog_size`); a property
/// fails when it is inconclusive or its failure was contained. An aborted
/// run fails them all.
Tally analysis_tally(const procheck::checker::ImplementationReport& report,
                     std::size_t catalog_size);

/// One diff attempts its triage candidates; inconclusive findings fail. A
/// diff that could not complete, or found nothing to triage, fails whole
/// (counted as at least one candidate).
Tally diff_tally(const procheck::diff::DiffReport& report);

/// What a remote learn must reproduce from its in-process reference.
struct LearnAnswer {
  std::string machine;  // canonical rendering of the learned Mealy machine
  long membership_queries = 0;
  bool operator==(const LearnAnswer&) const = default;
};

LearnAnswer learn_answer(const procheck::learner::LearnResult& result);

}  // namespace perfbench
