// diff-cls-oai: `diff profile:cls profile:oai` with triage at jobs=2,
// closed loop. It builds two fresh threat models and checks only the
// candidate properties on each, so per-model set-up is amortised over a
// handful of checks instead of 62: work moved into set-up shows here.
#include "diff/diff.h"
#include "diff/sources.h"
#include "diff/triage.h"
#include "known_answers.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace procheck;

constexpr std::size_t kJobs = 2;
/// Set-up takes milliseconds, so besides the one inside every diff it is
/// timed in batches: one before the first diff and one after each.
constexpr int kSetupBatch = 10;

struct Sides {
  diff::SideResult left;
  diff::SideResult right;
};

/// Both resolve_side calls: the diff's set-up.
Sides resolve(Tracer* tracer, int parent) {
  Sides s;
  {
    ScopedSpan span(tracer, "diff.resolve_side", parent, "left");
    s.left = diff::resolve_side("profile:cls");
  }
  {
    ScopedSpan span(tracer, "diff.resolve_side", parent, "right");
    s.right = diff::resolve_side("profile:oai");
  }
  return s;
}

diff::DiffReport compare(const Sides& s, Tracer* tracer, int parent) {
  diff::DiffReport report;
  {
    ScopedSpan span(tracer, "diff.diff_machines", parent);
    report = diff::diff_machines(s.left.side, s.right.side);
  }
  diff::TriageOptions triage;
  triage.jobs = kJobs;
  {
    ScopedSpan span(tracer, "diff.triage", parent);
    diff::triage(report, s.left.side, s.right.side, triage);
  }
  return report;
}

/// Candidates and the inconclusive ones among them: the fail_rate base.
void account(const Sides& s, const diff::DiffReport& report, WorkloadResult& out) {
  for (const diff::SideResult* side : {&s.left, &s.right}) {
    if (!side->ok) out.mismatches.push_back("side unavailable: " + side->error);
  }
  for (const std::string& m : check_diff(report, cls_oai_expectation())) {
    out.mismatches.push_back(m);
  }
  const Tally tally = diff_tally(report);
  out.attempted += tally.attempted;
  out.failed += tally.failed;
}

}  // namespace

WorkloadResult run_diff(const RunOptions& options) {
  WorkloadResult out;
  std::vector<double> setup_walls;
  auto time_setups = [&] {
    for (int r = 0; r < kSetupBatch; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      resolve(nullptr, -1);
      setup_walls.push_back(seconds_since(t0));
    }
  };
  time_setups();
  {
    // Warm-up: the heap and caches settle before timing.
    const Sides sides = resolve(nullptr, -1);
    account(sides, compare(sides, nullptr, -1), out);
  }

  std::vector<double> op_walls;
  std::vector<double> op_cpus;
  double elapsed = 0;
  do {
    const double cpu0 = process_cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    const Sides sides = resolve(nullptr, -1);
    setup_walls.push_back(seconds_since(t0));
    const diff::DiffReport report = compare(sides, nullptr, -1);
    op_walls.push_back(seconds_since(t0));
    op_cpus.push_back(process_cpu_seconds() - cpu0);
    elapsed += op_walls.back();
    account(sides, report, out);
    time_setups();
  } while (elapsed < options.seconds);

  set_fastest_end_to_end(out, op_walls, op_cpus, "diff");
  out.metrics.set("setup_s", median(setup_walls), "s");
  return out;
}

void trace_diff(const RunOptions&, Tracer& tracer, WorkloadResult& out) {
  const int root = tracer.begin("diff-cls-oai", -1, "diff");
  const Sides sides = resolve(&tracer, root);
  const diff::DiffReport report = compare(sides, &tracer, root);
  tracer.end(root);
  account(sides, report, out);

  const auto t0 = std::chrono::steady_clock::now();
  const Sides untraced_sides = resolve(nullptr, -1);
  const diff::DiffReport untraced = compare(untraced_sides, nullptr, -1);
  const double untraced_wall = seconds_since(t0);
  account(untraced_sides, untraced, out);

  Metrics& m = out.metrics;
  m.set("diff.resolve_s", tracer.total_seconds("diff.resolve_side"), "s");
  m.set("diff.walk_s", tracer.total_seconds("diff.diff_machines"), "s");
  m.set("diff.product_pairs", static_cast<double>(report.product_pairs), "count");
  m.set("diff.divergences", static_cast<double>(report.divergences.size()), "count");
  m.set("diff.triage_s", tracer.total_seconds("diff.triage"), "s");
  m.set("diff.candidates", static_cast<double>(report.findings.size()), "count");
  const double op_wall = tracer.duration(root);
  m.set("trace.diff-cls-oai.coverage", tracer.child_coverage(root), "ratio");
  m.set("trace.diff-cls-oai.overhead_frac", untraced_wall > 0 ? op_wall / untraced_wall - 1 : 0,
        "ratio");
}

}  // namespace perfbench
