#include "checker/report.h"

#include <sstream>

namespace procheck::checker {

std::string to_string(PropertyResult::Status status) {
  switch (status) {
    case PropertyResult::Status::kVerified:
      return "verified";
    case PropertyResult::Status::kAttack:
      return "ATTACK";
    case PropertyResult::Status::kNotApplicable:
      return "n/a";
    case PropertyResult::Status::kInconclusive:
      return "INCONCLUSIVE";
  }
  return "?";
}

namespace {

/// Left-justified field of at least `width` characters (printf "%-*s").
void pad_to(std::string& out, const std::string& field, std::size_t width) {
  out += field;
  for (std::size_t k = field.size(); k < width; ++k) out += ' ';
}

}  // namespace

std::string render_verdicts(const ImplementationReport& report) {
  std::string out;
  for (const PropertyResult& r : report.results) {
    pad_to(out, r.property_id, 4);
    out += ' ';
    pad_to(out, to_string(r.status), 12);
    out += ' ';
    pad_to(out, r.attack_id.empty() ? "-" : r.attack_id, 5);
    out += ' ';
    out += r.note;
    out += '\n';
  }
  out += '\n' + report.profile_name + ": " + std::to_string(report.verified_count()) +
         " verified, " + std::to_string(report.attack_count()) + " attacks, " +
         std::to_string(report.not_applicable_count()) + " n/a, " +
         std::to_string(report.inconclusive_count()) + " inconclusive | Table I rows: ";
  for (const std::string& id : report.attacks_found) out += id + ' ';
  out += '\n';
  if (report.contained_count() > 0) {
    out += "contained failures:";
    for (const PropertyOutcome& o : report.outcomes) {
      if (o.failure == FailureClass::kNone) continue;
      out += ' ' + o.result.property_id + ':' + std::string(to_string(o.failure)) + '(' +
             std::to_string(o.attempts) + ')';
    }
    out += '\n';
  }
  return out;
}

std::string render_report(const ImplementationReport& report, const ReportOptions& options) {
  std::ostringstream out;
  out << "# ProChecker report: " << report.profile_name << "\n\n";

  // Pipeline summary.
  auto flat = report.checking_model.stats();
  auto rich = report.extracted.stats();
  out << "## Pipeline\n\n"
      << "- log records: " << report.log_records << " (extraction "
      << report.extraction_seconds << " s)\n"
      << "- checking model: " << flat.states << " states, " << flat.transitions
      << " transitions, " << flat.conditions << " condition atoms\n"
      << "- substate model: " << rich.states << " states, " << rich.transitions
      << " transitions\n\n";

  if (options.include_conformance) {
    out << "## Conformance\n\n"
        << "- " << report.conformance.passed() << "/" << report.conformance.total()
        << " cases passed, handler coverage "
        << static_cast<int>(report.conformance.handler_coverage * 100) << "%\n";
    for (const testing::TestResult& r : report.conformance.results) {
      if (!r.passed) out << "- FAILED: " << r.id << "\n";
    }
    out << "\n";
  }

  out << "## Verdicts\n\n"
      << "- " << report.verified_count() << " verified, " << report.attack_count()
      << " attacks, " << report.not_applicable_count() << " not applicable";
  if (report.inconclusive_count() > 0) {
    out << ", " << report.inconclusive_count() << " INCONCLUSIVE (budget exhausted)";
  }
  out << "\n- Table I rows detected:";
  for (const std::string& id : report.attacks_found) out << " " << id;
  out << "\n";
  if (report.contained_count() > 0) {
    out << "- " << report.contained_count()
        << " contained failures (exception/deadline/memory — see per-property notes)\n";
  }
  if (report.resumed_count > 0) {
    out << "- " << report.resumed_count << " verdicts adopted from the run journal\n";
  }
  out << "\n## Findings\n\n";

  threat::ThreatModel tm =
      options.include_traces ? ProChecker::build_threat_model(report.checking_model)
                             : threat::ThreatModel{};
  for (const PropertyResult& r : report.results) {
    bool is_attack = r.status == PropertyResult::Status::kAttack;
    // Inconclusive results are findings too: the analyst must either raise
    // the budget or treat the property as unassessed.
    bool interesting = is_attack || r.status == PropertyResult::Status::kInconclusive;
    if (!interesting && !options.include_verified) continue;
    out << "### " << r.property_id << " — " << to_string(r.status);
    if (!r.attack_id.empty()) out << " [" << r.attack_id << "]";
    out << "\n\n" << r.note << "\n";
    if (r.iterations > 1) {
      out << "\nCEGAR: " << r.iterations << " iterations";
      if (!r.refinements.empty()) out << ", " << r.refinements.size() << " refinements";
      out << "\n";
      for (const std::string& ref : r.refinements) out << "- " << ref << "\n";
    }
    if (r.equivalence) {
      out << "\nObservational equivalence: " << r.equivalence->reason << "\n";
    }
    if (is_attack && options.include_traces && r.counterexample) {
      out << "\n```\n" << r.counterexample->render(tm.model) << "```\n";
    }
    out << "\n";
  }
  return out.str();
}

std::string render_findings_matrix(const std::vector<const ImplementationReport*>& reports) {
  std::ostringstream out;
  out << "| Property | Row |";
  for (const ImplementationReport* rep : reports) out << " " << rep->profile_name << " |";
  out << "\n|---|---|";
  for (std::size_t i = 0; i < reports.size(); ++i) out << "---|";
  out << "\n";

  if (reports.empty()) return out.str();
  const std::size_t n = reports.front()->results.size();
  for (std::size_t i = 0; i < n; ++i) {
    bool interesting = false;
    for (const ImplementationReport* rep : reports) {
      interesting = interesting ||
                    (i < rep->results.size() &&
                     rep->results[i].status != PropertyResult::Status::kVerified);
    }
    if (!interesting) continue;
    const PropertyResult& first = reports.front()->results[i];
    out << "| " << first.property_id << " | "
        << (first.attack_id.empty() ? "-" : first.attack_id) << " |";
    for (const ImplementationReport* rep : reports) {
      out << " " << (i < rep->results.size() ? to_string(rep->results[i].status) : "?")
          << " |";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace procheck::checker
