// Ablation bench (DESIGN.md §7): the TS 33.102 Annex C.2.2 freshness limit
// L is the optional, unimplemented mitigation whose absence the paper
// identifies as the P1/P2 root cause ("being optional and unspecified none
// of the major vendors are implementing such a check"). This bench runs the
// SQN-dependent properties with and without L and shows the attack rows
// flipping to verified, plus the CEGAR iteration cost of the refinement.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "checker/prochecker.h"
#include "checker/report.h"
#include "common/table.h"

namespace {

using namespace procheck;
using checker::PropertyResult;

const std::set<std::string> kSqnProperties = {"S01", "P01", "P06"};

struct Outcome {
  std::string status;
  int iterations = 0;
  int refinements = 0;
  double seconds = 0;
};

std::map<std::string, std::map<std::string, Outcome>>& outcomes() {
  static std::map<std::string, std::map<std::string, Outcome>> o;
  return o;
}

void BM_SqnProperties(benchmark::State& state, bool with_limit) {
  ue::StackProfile profile = ue::StackProfile::cls();
  if (with_limit) profile.sqn_freshness_limit = 1;
  checker::AnalysisOptions options;
  options.only_properties = kSqnProperties;
  for (auto _ : state) {
    checker::ImplementationReport rep = checker::ProChecker::analyze(profile, options);
    auto& slot = outcomes()[with_limit ? "with L" : "without L"];
    for (const PropertyResult& r : rep.results) {
      slot[r.property_id] = {checker::to_string(r.status), r.iterations,
                             static_cast<int>(r.refinements.size()), r.total_seconds};
    }
    state.counters["attacks"] = rep.attack_count();
  }
}

BENCHMARK_CAPTURE(BM_SqnProperties, without_freshness_limit, false)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK_CAPTURE(BM_SqnProperties, with_freshness_limit, true)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

void print_ablation() {
  TextTable t({"Property", "without L", "with L", "CEGAR iters (no L / L)",
               "refinements (no L / L)"});
  for (const std::string& id : kSqnProperties) {
    const Outcome& no_l = outcomes()["without L"][id];
    const Outcome& with_l = outcomes()["with L"][id];
    t.add_row({id, no_l.status, with_l.status,
               std::to_string(no_l.iterations) + " / " + std::to_string(with_l.iterations),
               std::to_string(no_l.refinements) + " / " + std::to_string(with_l.refinements)});
  }
  std::printf("\nABLATION: TS 33.102 Annex C.2.2 freshness limit L (P1/P2 mitigation)\n%s\n",
              t.render().c_str());
  std::printf("Expected: S01 (P1) and P01 (P2) are attacks without L and verified with L —\n"
              "the CPV adjudicates the stale-SQN replay infeasible and the CEGAR loop\n"
              "refines the counterexample away (extra iterations under L).\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_ablation();
  return 0;
}
