// Scalability of the full-catalog analysis (the RQ3 trajectory data): runs
// the complete 62-property verification of the CLS profile at jobs=1/2/4/8
// and reports wall-clock seconds, the one reachable-graph build (seconds,
// states, edges, bytes), per-property traversal time (p50, max), traversal
// throughput (states/sec) and the peak footprint of any single traversal.
//
//   bench_catalog_parallel [--profile <cls|srsue|oai>] [--write-json <path>]
//                          [--supervised]
//
// --write-json emits BENCH_catalog.json (machine-readable trajectory file;
// run from the repo root to place it there). Every run's report is checked
// against the jobs=1 report — a determinism violation fails the benchmark.
//
// --supervised additionally measures the fault-free cost of the analysis
// supervisor (retries armed + durable journal) over five alternating
// baseline/supervised jobs=1 pairs and fails the benchmark if the median
// per-pair overhead exceeds 3%.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checker/prochecker.h"
#include "common/journal.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace {

using namespace procheck;

struct RunSample {
  int jobs = 1;
  double wall_seconds = 0;
  mc::CheckStats graph;  // the reachable-graph build
  double property_p50_ms = 0;  // per-property traversal time (all CEGAR iterations)
  double property_max_ms = 0;
  std::size_t states = 0;
  std::size_t peak_visited_bytes = 0;
  int verified = 0;
  int attacks = 0;
};

/// Nearest-rank percentile (q in [0, 100]) of a non-empty sample.
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(q / 100.0 * static_cast<double>(v.size() - 1));
  return v[rank];
}

std::string fingerprint(const checker::ImplementationReport& rep) {
  std::string out;
  for (const checker::PropertyResult& r : rep.results) {
    out += r.property_id;
    out += ':';
    out += std::to_string(static_cast<int>(r.status));
    out += ':';
    out += std::to_string(r.refinements.size());
    out += ':';
    out += r.counterexample ? std::to_string(r.counterexample->steps.size()) : "-";
    out += ';';
  }
  for (const std::string& id : rep.attacks_found) {
    out += id;
    out += ',';
  }
  return out;
}

RunSample run_catalog(const ue::StackProfile& profile, int jobs, std::string* print,
                      const std::string& journal_path = {}, int retries = 0) {
  checker::AnalysisOptions options;
  options.jobs = jobs;
  options.retries = retries;
  options.journal_path = journal_path;
  auto t0 = std::chrono::steady_clock::now();
  checker::ImplementationReport rep = checker::ProChecker::analyze(profile, options);
  RunSample s;
  s.jobs = jobs;
  s.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  s.graph = rep.graph_stats;
  s.verified = rep.verified_count();
  s.attacks = rep.attack_count();
  std::vector<double> property_ms;
  for (const checker::PropertyResult& r : rep.results) {
    s.states += r.total_states;
    s.peak_visited_bytes = std::max(s.peak_visited_bytes, r.peak_visited_bytes);
    if (r.iterations > 0) property_ms.push_back(r.total_seconds * 1e3);
  }
  if (!property_ms.empty()) {
    s.property_p50_ms = percentile(property_ms, 50);
    s.property_max_ms = percentile(property_ms, 100);
  }
  *print = fingerprint(rep);
  return s;
}

/// Alternating baseline/supervised jobs=1 pairs: one pair of ~1 s runs is
/// inside a shared host's run-to-run swing, the median of several is not.
constexpr int kSupervisedPairs = 5;

struct SupervisedSample {
  bool measured = false;
  std::vector<double> baseline_wall;
  std::vector<double> supervised_wall;
  std::vector<double> overhead_pct;  // per pair
  double median_overhead_pct = 0;
  std::size_t journal_records = 0;
};

std::string json_list(const std::vector<double>& v, const char* format) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), format, v[i]);
    out += (i > 0 ? ", " : "") + std::string(buf);
  }
  return out + "]";
}

void write_json(const std::string& path, const std::string& profile,
                const std::vector<RunSample>& runs, const SupervisedSample& sup) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"catalog_parallel\",\n");
  std::fprintf(f, "  \"profile\": \"%s\",\n", profile.c_str());
  std::fprintf(f, "  \"properties\": 62,\n");
  std::fprintf(f, "  \"hardware_concurrency\": %zu,\n", ThreadPool::default_parallelism());
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunSample& s = runs[i];
    std::fprintf(f,
                 "    {\"jobs\": %d, \"wall_seconds\": %.3f, \"graph_build_seconds\": %.3f,"
                 " \"graph_states\": %zu, \"graph_edges\": %zu, \"graph_bytes\": %zu,"
                 " \"property_p50_ms\": %.2f, \"property_max_ms\": %.2f, \"states\": %zu,"
                 " \"states_per_sec\": %.0f, \"peak_visited_bytes\": %zu,"
                 " \"verified\": %d, \"attacks\": %d}%s\n",
                 s.jobs, s.wall_seconds, s.graph.seconds, s.graph.states_explored,
                 s.graph.edges_explored, s.graph.visited_bytes, s.property_p50_ms,
                 s.property_max_ms, s.states,
                 s.wall_seconds > 0 ? static_cast<double>(s.states) / s.wall_seconds : 0.0,
                 s.peak_visited_bytes, s.verified, s.attacks,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  double j1 = runs.front().wall_seconds;
  double j8 = runs.back().wall_seconds;
  std::fprintf(f, "  \"speedup_max_jobs_vs_jobs1\": %.2f%s\n", j8 > 0 ? j1 / j8 : 0.0,
               sup.measured ? "," : "");
  if (sup.measured) {
    std::fprintf(f,
                 "  \"supervised\": {\"pairs\": %zu, \"baseline_wall_seconds\": %s,"
                 " \"supervised_wall_seconds\": %s, \"overhead_pct\": %s,"
                 " \"median_overhead_pct\": %.2f, \"journal_records\": %zu}\n",
                 sup.overhead_pct.size(), json_list(sup.baseline_wall, "%.3f").c_str(),
                 json_list(sup.supervised_wall, "%.3f").c_str(),
                 json_list(sup.overhead_pct, "%.2f").c_str(), sup.median_overhead_pct,
                 sup.journal_records);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string profile_name = "cls";
  std::string json_path;
  bool supervised = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--profile" && i + 1 < argc) {
      profile_name = argv[++i];
    } else if (a == "--write-json") {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "BENCH_catalog.json";
    } else if (a == "--supervised") {
      supervised = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_catalog_parallel [--profile <cls|srsue|oai>]"
                   " [--write-json [path]] [--supervised]\n");
      return 2;
    }
  }
  ue::StackProfile profile = ue::StackProfile::cls();
  if (profile_name == "srsue") {
    profile = ue::StackProfile::srsue();
  } else if (profile_name == "oai") {
    profile = ue::StackProfile::oai();
  } else if (profile_name != "cls") {
    std::fprintf(stderr, "unknown profile %s\n", profile_name.c_str());
    return 2;
  }

  std::vector<RunSample> runs;
  std::string reference;
  for (int jobs : {1, 2, 4, 8}) {
    std::string print;
    RunSample s = run_catalog(profile, jobs, &print);
    if (jobs == 1) {
      reference = print;
    } else if (print != reference) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: jobs=%d report differs from jobs=1\n",
                   jobs);
      return 1;
    }
    std::printf(
        "jobs=%d: %.2fs wall; graph %zu states, %zu edges, %.1f MiB in %.2fs; per property"
        " p50 %.2f ms, max %.2f ms; %zu states traversed (%.0f states/sec)\n",
        s.jobs, s.wall_seconds, s.graph.states_explored, s.graph.edges_explored,
        static_cast<double>(s.graph.visited_bytes) / (1024.0 * 1024.0), s.graph.seconds,
        s.property_p50_ms, s.property_max_ms, s.states,
        s.wall_seconds > 0 ? static_cast<double>(s.states) / s.wall_seconds : 0.0);
    std::fflush(stdout);
    runs.push_back(s);
  }

  TextTable t({"jobs", "wall (s)", "graph build (s)", "property p50 (ms)",
               "property max (ms)", "speedup vs jobs=1"});
  for (const RunSample& s : runs) {
    char wall[32], build[32], p50[32], max[32], speedup[32];
    std::snprintf(wall, sizeof(wall), "%.2f", s.wall_seconds);
    std::snprintf(build, sizeof(build), "%.2f", s.graph.seconds);
    std::snprintf(p50, sizeof(p50), "%.2f", s.property_p50_ms);
    std::snprintf(max, sizeof(max), "%.2f", s.property_max_ms);
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  s.wall_seconds > 0 ? runs.front().wall_seconds / s.wall_seconds : 0.0);
    t.add_row({std::to_string(s.jobs), wall, build, p50, max, speedup});
  }
  std::printf("\nFull-catalog analysis scalability (%s profile, %zu hardware threads)\n%s",
              profile.name.c_str(), ThreadPool::default_parallelism(), t.render().c_str());
  std::printf("Reports at every jobs level are identical (determinism contract held).\n");

  SupervisedSample sup;
  if (supervised) {
    // Fault-free supervisor overhead: retries armed, durable journal on, no
    // faults injected — the watchdog polling and journal fsyncs are the only
    // extra work. Baseline and supervised runs alternate so machine drift
    // hits both sides of every pair alike.
    const std::string journal = "/tmp/bench_catalog_journal.jsonl";
    for (int pair = 0; pair < kSupervisedPairs; ++pair) {
      std::string base_print;
      const double base = run_catalog(profile, 1, &base_print).wall_seconds;
      std::remove(journal.c_str());
      std::string sup_print;
      const double with = run_catalog(profile, 1, &sup_print, journal, /*retries=*/2).wall_seconds;
      if (sup_print != reference || base_print != reference) {
        std::fprintf(stderr, "DETERMINISM VIOLATION: supervised report differs from jobs=1\n");
        return 1;
      }
      sup.baseline_wall.push_back(base);
      sup.supervised_wall.push_back(with);
      sup.overhead_pct.push_back(base > 0 ? (with - base) / base * 100.0 : 0.0);
      std::printf("supervised pair %d: baseline %.2fs, supervised %.2fs (%+.2f%%)\n", pair + 1,
                  base, with, sup.overhead_pct.back());
    }
    JournalLoad load = load_journal(journal);
    std::remove(journal.c_str());
    sup.measured = true;
    sup.median_overhead_pct = percentile(sup.overhead_pct, 50);
    // Header line is bookkeeping, not an outcome.
    sup.journal_records = load.payloads.empty() ? 0 : load.payloads.size() - 1;
    std::printf(
        "\nSupervised overhead (jobs=1, fault-free, %d alternating pairs): median %.2f%%,"
        " %zu journal records\n",
        kSupervisedPairs, sup.median_overhead_pct, sup.journal_records);
    if (sup.median_overhead_pct >= 3.0) {
      std::fprintf(stderr, "SUPERVISED OVERHEAD EXCEEDS 3%% (median %.2f%%)\n",
                   sup.median_overhead_pct);
      return 1;
    }
  }

  if (!json_path.empty()) write_json(json_path, profile.name, runs, sup);
  return 0;
}
