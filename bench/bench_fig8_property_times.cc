// Regenerates **Figure 8** of the paper: per-property verification time for
// the 14 common properties, on ProChecker's automatically extracted model
// (Pro^μ, closed-source profile) versus LTEInspector's manual model
// (LTE^μ). The paper's claim (RQ3): the richer extracted model verifies
// with time "only a fraction higher" than the hand-built one — i.e. the
// automatic extraction does not break COTS model-checker scalability.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "checker/baseline.h"
#include "checker/cegar.h"
#include "checker/prochecker.h"
#include "checker/property.h"
#include "common/table.h"
#include "extractor/extractor.h"
#include "testing/conformance.h"

namespace {

using namespace procheck;
using checker::PropertyDef;

struct Models {
  fsm::Fsm pro;  // extracted from the closed-source profile's log
  fsm::Fsm lte;  // the manual LTEInspector machine
};

const Models& models() {
  static const Models m = [] {
    Models out;
    instrument::TraceLogger trace;
    testing::run_conformance(ue::StackProfile::cls(), trace);
    extractor::ExtractionOptions opts;
    opts.chain_substates = false;
    opts.initial_state = "EMM_DEREGISTERED";
    out.pro = extractor::extract_basic(trace.records(),
                                       extractor::ue_signatures(ue::StackProfile::cls()), opts);
    out.lte = checker::lteinspector_ue_model();
    return out;
  }();
  return m;
}

struct Timing {
  double pro_seconds = 0;
  double lte_seconds = 0;
  std::size_t pro_states = 0;
  std::size_t lte_states = 0;
};

std::map<std::string, Timing>& timings() {
  static std::map<std::string, Timing> t;
  return t;
}

/// A UE machine's threat model and its reachable graph, built once and
/// shared by every property timed on it (the graph build is not part of
/// any one property's time).
struct Checked {
  threat::ThreatModel tm;
  mc::ReachGraph graph;
};

/// Heap-held: the graph refers to the threat model, which must not move.
std::unique_ptr<Checked> make_checked(const fsm::Fsm& ue_model) {
  auto out = std::make_unique<Checked>();
  out->tm = threat::compose(ue_model, checker::lteinspector_mme_model());
  out->graph = mc::ReachGraph::build(out->tm.model);
  return out;
}

const Checked& checked(bool on_pro) {
  static const std::unique_ptr<Checked> pro = make_checked(models().pro);
  static const std::unique_ptr<Checked> lte = make_checked(models().lte);
  return on_pro ? *pro : *lte;
}

double run_property(bool on_pro, const PropertyDef& prop, std::size_t* states) {
  const fsm::Fsm& ue_model = on_pro ? models().pro : models().lte;
  cpv::LteCryptoModel crypto;
  checker::PropertyResult r = checker::check_property(checked(on_pro).graph, ue_model, prop, crypto);
  if (states) *states = r.last_stats.states_explored;
  return r.total_seconds;
}

void BM_CommonProperty(benchmark::State& state, const PropertyDef* prop, bool on_pro) {
  for (auto _ : state) {
    std::size_t states_explored = 0;
    double seconds = run_property(on_pro, *prop, &states_explored);
    Timing& t = timings()[prop->id];
    if (on_pro) {
      t.pro_seconds = seconds;
      t.pro_states = states_explored;
    } else {
      t.lte_seconds = seconds;
      t.lte_states = states_explored;
    }
    state.counters["mc_states"] = static_cast<double>(states_explored);
  }
}

void register_benchmarks() {
  for (const PropertyDef* prop : checker::common_properties()) {
    benchmark::RegisterBenchmark(("Fig8/ProChecker/" + prop->id).c_str(), BM_CommonProperty,
                                 prop, /*on_pro=*/true)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(("Fig8/LTEInspector/" + prop->id).c_str(), BM_CommonProperty,
                                 prop, /*on_pro=*/false)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

void print_fig8() {
  TextTable t({"Property", "LTEInspector (s)", "ProChecker (s)", "ratio", "Pro states",
               "LTE states"});
  double total_pro = 0;
  double total_lte = 0;
  int i = 0;
  for (const PropertyDef* prop : checker::common_properties()) {
    const Timing& tim = timings()[prop->id];
    total_pro += tim.pro_seconds;
    total_lte += tim.lte_seconds;
    char pro[32], lte[32], ratio[32];
    std::snprintf(pro, sizeof(pro), "%.4f", tim.pro_seconds);
    std::snprintf(lte, sizeof(lte), "%.4f", tim.lte_seconds);
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  tim.lte_seconds > 0 ? tim.pro_seconds / tim.lte_seconds : 0.0);
    t.add_row({std::to_string(++i) + ". " + prop->id, lte, pro, ratio,
               std::to_string(tim.pro_states), std::to_string(tim.lte_states)});
  }
  std::printf("\nFIGURE 8: Execution time of the common properties (paper Fig. 8)\n%s\n",
              t.render().c_str());
  std::printf("Totals: ProChecker %.3fs vs LTEInspector %.3fs (overall ratio %.2fx).\n"
              "Expected shape per the paper: the automatically extracted model checks only a"
              " fraction slower than the manual one.\n",
              total_pro, total_lte, total_lte > 0 ? total_pro / total_lte : 0.0);
  std::printf("Model sizes: Pro^u %zu states / %zu transitions; LTE^u %zu states / %zu"
              " transitions.\n",
              models().pro.stats().states, models().pro.stats().transitions,
              models().lte.stats().states, models().lte.stats().transitions);
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_fig8();
  return 0;
}
