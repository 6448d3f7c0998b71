// Regenerates **Table II** of the paper: the properties common to
// ProChecker and LTEInspector (the set whose verification times Fig. 8
// compares). Also benchmarks catalog construction and property compilation
// against a threat model.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "checker/baseline.h"
#include "checker/property.h"
#include "common/table.h"
#include "threat/compose.h"

namespace {

using procheck::checker::common_properties;
using procheck::checker::property_catalog;
using procheck::checker::PropertyDef;

void BM_CatalogConstruction(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(property_catalog().size());
  }
}
BENCHMARK(BM_CatalogConstruction);

void BM_PropertyCompile(benchmark::State& state) {
  procheck::threat::ThreatModel tm =
      procheck::threat::compose(procheck::checker::lteinspector_ue_model(),
                                procheck::checker::lteinspector_mme_model());
  for (auto _ : state) {
    for (const PropertyDef* p : common_properties()) {
      if (p->kind == PropertyDef::Kind::kEdgeNever) {
        benchmark::DoNotOptimize(p->bad.compile(tm.model));
      } else {
        benchmark::DoNotOptimize(p->trigger.compile(tm.model));
        benchmark::DoNotOptimize(p->response.compile(tm.model));
      }
    }
  }
}
BENCHMARK(BM_PropertyCompile);

void print_table2() {
  procheck::TextTable t({"#", "Id", "Type", "Kind", "Property"});
  int i = 0;
  for (const PropertyDef* p : common_properties()) {
    t.add_row({std::to_string(++i), p->id,
               p->type == PropertyDef::Type::kSecurity ? "Security" : "Privacy",
               p->kind == PropertyDef::Kind::kEdgeNever ? "safety" : "liveness",
               p->description});
  }
  std::printf("\nTABLE II: Common properties of ProChecker and LTEInspector (paper Table II)\n%s\n",
              t.render().c_str());

  int security = 0;
  int privacy = 0;
  for (const PropertyDef& p : property_catalog()) {
    (p.type == PropertyDef::Type::kSecurity ? security : privacy) += 1;
  }
  std::printf("Catalog: %zu properties total — %d security, %d privacy (paper: 62 = 37 + 25);"
              " %zu common with LTEInspector (paper Table II: 14)\n",
              property_catalog().size(), security, privacy, common_properties().size());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table2();
  return 0;
}
