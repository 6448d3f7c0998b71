// analyze-cls: ProChecker::analyze of the cls profile, closed loop (the next
// analysis starts when the previous one returns). MC dominates it, so any
// mc/checker change shows here. The timed operation checks seven
// properties at jobs=1, a few seconds each, so a run holds ten or more of
// them; the traced pass runs all 62 at jobs=2.
#include <algorithm>
#include <memory>
#include <mutex>

#include "checker/prochecker.h"
#include "checker/property.h"
#include "common/thread_pool.h"
#include "extractor/extractor.h"
#include "instrument/trace_log.h"
#include "known_answers.h"
#include "mc/checker.h"
#include "testing/conformance.h"
#include "ue/profile.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace procheck;

/// Timed analyses run on one thread: on a shared host a second worker adds
/// scheduling and load-balance noise to every sample.
constexpr int kTimedJobs = 1;
/// The traced pass fans the full catalog out as analyze's default would on
/// a small host, so common.pool_efficiency has something to measure.
constexpr int kTraceJobs = 2;
/// Set-up takes milliseconds, so it is timed in batches: one before the first
/// analysis and one after each, sampling the host across the whole run.
constexpr int kSetupBatch = 25;

/// Everything ProChecker::analyze builds before it checks a property.
struct SetupProducts {
  instrument::TraceLogger log;
  fsm::Fsm extracted;
  fsm::Fsm checking_model;
  threat::ThreatModel tm;
};

/// The analysis set-up, in the order ProChecker::analyze runs it:
/// run_conformance + extract + extract_basic + build_threat_model.
void run_setup(const ue::StackProfile& profile, Tracer* tracer, int parent, SetupProducts& out) {
  {
    ScopedSpan span(tracer, "testing.run_conformance", parent);
    testing::run_conformance(profile, out.log);
  }
  extractor::Signatures sigs = extractor::ue_signatures(profile);
  extractor::ExtractionOptions rich;
  rich.initial_state = "EMM_DEREGISTERED";
  {
    ScopedSpan span(tracer, "extractor.extract", parent);
    out.extracted = extractor::extract(out.log.records(), sigs, rich);
  }
  extractor::ExtractionOptions flat = rich;
  flat.chain_substates = false;
  {
    ScopedSpan span(tracer, "extractor.extract_basic", parent);
    out.checking_model = extractor::extract_basic(out.log.records(), sigs, flat);
  }
  {
    ScopedSpan span(tracer, "threat.compose", parent);
    out.tm = checker::ProChecker::build_threat_model(out.checking_model);
  }
}

checker::AnalysisOptions analysis_options(int jobs, std::set<std::string> only = {}) {
  checker::AnalysisOptions o;
  o.jobs = jobs;
  o.only_properties = std::move(only);
  return o;
}

/// One cryptographic verifier per concurrent worker: LteCryptoModel caches
/// lazily behind a const interface, so it must not be shared.
class CryptoPool {
 public:
  explicit CryptoPool(cpv::LteCryptoModel::Options options) : options_(options) {}

  std::unique_ptr<cpv::LteCryptoModel> take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return std::make_unique<cpv::LteCryptoModel>(options_);
    auto model = std::move(free_.back());
    free_.pop_back();
    return model;
  }
  void give(std::unique_ptr<cpv::LteCryptoModel> model) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(model));
  }

 private:
  cpv::LteCryptoModel::Options options_;
  std::mutex mu_;
  std::vector<std::unique_ptr<cpv::LteCryptoModel>> free_;
};

}  // namespace

WorkloadResult run_analyze(const RunOptions& options) {
  WorkloadResult out;
  const ue::StackProfile profile = ue::StackProfile::cls();

  std::vector<double> setup_walls;
  auto time_setups = [&] {
    for (int r = 0; r < kSetupBatch; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      SetupProducts s;
      run_setup(profile, nullptr, -1, s);
      setup_walls.push_back(seconds_since(t0));
    }
  };
  time_setups();

  const AnalysisExpectation expected = cls_timed_expectation();
  const checker::AnalysisOptions timed = analysis_options(kTimedJobs, cls_timed_properties());
  auto analyze_checked = [&] {
    const checker::ImplementationReport report = checker::ProChecker::analyze(profile, timed);
    for (const std::string& m : check_analysis(report.results, report.attacks_found, expected)) {
      out.mismatches.push_back(m);
    }
    const Tally tally = analysis_tally(report, expected.verdicts.size());
    out.attempted += tally.attempted;
    out.failed += tally.failed;
  };
  analyze_checked();  // warm-up: the heap and caches settle before timing

  std::vector<double> op_walls;
  std::vector<double> op_cpus;
  double elapsed = 0;
  do {
    const double cpu0 = process_cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    analyze_checked();
    op_walls.push_back(seconds_since(t0));
    op_cpus.push_back(process_cpu_seconds() - cpu0);
    elapsed += op_walls.back();
    time_setups();
  } while (elapsed < options.seconds);

  set_fastest_end_to_end(out, op_walls, op_cpus, "analyze");

  out.metrics.set("setup_s", median(setup_walls), "s");
  return out;
}

void trace_analyze(const RunOptions&, Tracer& tracer, WorkloadResult& out) {
  const ue::StackProfile profile = ue::StackProfile::cls();
  const AnalysisExpectation expected = cls_expectation();

  // --- traced pass: the pipeline of ProChecker::analyze, call by call ------
  const int root = tracer.begin("analyze-cls", -1, "analyze");
  SetupProducts s;
  run_setup(profile, &tracer, root, s);

  std::vector<const checker::PropertyDef*> selected;
  for (const checker::PropertyDef& p : checker::property_catalog()) selected.push_back(&p);
  std::vector<checker::PropertyResult> results(selected.size());
  std::vector<int> property_spans(selected.size(), -1);
  cpv::LteCryptoModel::Options crypto_options;
  crypto_options.usim_freshness_limit = profile.sqn_freshness_limit.has_value();
  CryptoPool crypto(crypto_options);
  const checker::AnalysisOptions defaults = analysis_options(kTraceJobs);
  checker::CegarOptions cegar;
  cegar.max_states = defaults.max_states;
  cegar.max_iterations = defaults.max_cegar_iterations;
  {
    ScopedSpan fan(&tracer, "common.parallel_for", root);
    parallel_for(kTraceJobs, selected.size(), [&](std::size_t i) {
      auto model = crypto.take();
      const int span = tracer.begin("checker.check_property", fan.id(), selected[i]->id);
      results[i] = checker::check_property(s.tm, s.checking_model, *selected[i], *model, cegar);
      tracer.end(span);
      property_spans[i] = span;
      crypto.give(std::move(model));
    });
  }
  tracer.end(root);

  std::set<std::string> attacks_found;
  for (const checker::PropertyResult& r : results) {
    if (r.status == checker::PropertyResult::Status::kAttack && !r.attack_id.empty()) {
      attacks_found.insert(r.attack_id);
    }
  }
  for (const std::string& m : check_analysis(results, attacks_found, expected)) {
    out.mismatches.push_back("traced: " + m);
  }
  out.attempted += static_cast<long>(results.size());
  out.failed += std::count_if(results.begin(), results.end(), [](const checker::PropertyResult& r) {
    return r.status == checker::PropertyResult::Status::kInconclusive;
  });

  // --- untraced pass of the same work: tracing overhead ---------------------
  const auto t0 = std::chrono::steady_clock::now();
  const checker::ImplementationReport report =
      checker::ProChecker::analyze(profile, analysis_options(kTraceJobs));
  const double untraced_wall = seconds_since(t0);
  for (const std::string& m : check_analysis(report.results, report.attacks_found, expected)) {
    out.mismatches.push_back(m);
  }
  const Tally tally = analysis_tally(report, expected.verdicts.size());
  out.attempted += tally.attempted;
  out.failed += tally.failed;

  // --- one full exploration of IMP^mu: the non-redundant unit of MC work ----
  mc::CheckStats reach;
  {
    ScopedSpan span(&tracer, "mc.check_edge_never", -1, "reachable");
    mc::Checker checker(s.tm.model);
    mc::CheckOptions full;
    full.max_states = 50'000'000;
    checker.check_edge_never([](const mc::State&, const mc::Command&, const mc::State&) { return false; },
                             &reach, full);
  }
  if (reach.truncated()) out.mismatches.push_back("reachable-set exploration truncated");

  // --- per-layer metrics ----------------------------------------------------
  Metrics& m = out.metrics;
  const double op_wall = tracer.duration(root);
  m.set("testing.conformance_s", tracer.total_seconds("testing.run_conformance"), "s");
  m.set("instrument.log_records", static_cast<double>(s.log.records().size()), "count");
  m.set("extractor.extract_s", tracer.total_seconds("extractor.extract") + tracer.total_seconds("extractor.extract_basic"), "s");
  m.set("extractor.transitions", static_cast<double>(s.checking_model.stats().transitions), "count");
  m.set("threat.compose_s", tracer.total_seconds("threat.compose"), "s");
  m.set("threat.vars", static_cast<double>(s.tm.model.var_count()), "count");
  m.set("threat.commands", static_cast<double>(s.tm.model.commands().size()), "count");

  double states = 0, mc_seconds = 0, peak_bytes = 0, iterations = 0, refinements = 0;
  double spurious = 0, counterexamples = 0, equivalence = 0, cpv_self = 0, property_total = 0;
  std::vector<double> property_ms;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const checker::PropertyResult& r = results[i];
    const double wall = tracer.duration(property_spans[i]);
    states += static_cast<double>(r.total_states);
    mc_seconds += r.total_seconds;
    peak_bytes = std::max(peak_bytes, static_cast<double>(r.peak_visited_bytes));
    iterations += r.iterations;
    refinements += static_cast<double>(r.refinements.size());
    // Every iteration but the last refined a spurious counterexample; the
    // last produced one when it ended in an attack or an equivalence query.
    const bool final_cex =
        r.status == checker::PropertyResult::Status::kAttack || r.equivalence.has_value();
    spurious += std::max(0, r.iterations - 1);
    counterexamples += std::max(0, r.iterations - 1) + (final_cex ? 1 : 0);
    equivalence += r.equivalence.has_value() ? 1 : 0;
    cpv_self += std::max(0.0, wall - r.total_seconds);
    property_total += wall;
    property_ms.push_back(wall * 1e3);
  }
  m.set("mc.reachable_states", static_cast<double>(reach.states_explored), "count");
  m.set("mc.reachable_edges", static_cast<double>(reach.edges_explored), "count");
  m.set("mc.reachable_s", reach.seconds, "s");
  m.set("mc.states_explored", states, "count");
  m.set("mc.explore_ratio",
        reach.states_explored > 0 ? states / static_cast<double>(reach.states_explored) : 0, "ratio");
  m.set("mc.search_s", mc_seconds, "s");
  m.set("mc.states_per_s", mc_seconds > 0 ? states / mc_seconds : 0, "1/s");
  m.set("mc.peak_visited_bytes", peak_bytes, "bytes");
  m.set("checker.property_p50_ms", median(property_ms), "ms");
  m.set("checker.property_max_ms", percentile(property_ms, 100), "ms");
  m.set("checker.cegar_iterations", iterations, "count");
  m.set("checker.refinements", refinements, "count");
  m.set("checker.spurious_ratio", counterexamples > 0 ? spurious / counterexamples : 0, "ratio");
  m.set("common.pool_efficiency", op_wall > 0 ? property_total / (op_wall * kTraceJobs) : 0, "ratio");
  m.set("cpv.self_s", cpv_self, "s");
  m.set("cpv.equivalence_queries", equivalence, "count");
  m.set("trace.analyze-cls.coverage", tracer.child_coverage(root), "ratio");
  m.set("trace.analyze-cls.overhead_frac", untraced_wall > 0 ? op_wall / untraced_wall - 1 : 0,
        "ratio");
}

}  // namespace perfbench
