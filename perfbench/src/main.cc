// perfbench: runs one workload and prints its metrics. The last line of
// stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer attribution
// (--trace 1). Every other line is for people.
//
//   perfbench --workload <analyze-cls|diff-cls-oai|learn-remote> --seed N
//             --seconds S --trace <0|1> --work-dir DIR [--trace-file F]
//
// Exit codes: 0 correct, 1 an output differed from its known answer, 2 usage
// error, 3 refused (debug or sanitizer build).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "stamp.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunOptions&);
  void (*trace)(const RunOptions&, Tracer&, WorkloadResult&);
};

constexpr Workload kWorkloads[] = {
    {"analyze-cls", run_analyze, trace_analyze},
    {"diff-cls-oai", run_diff, trace_diff},
    {"learn-remote", run_learn, trace_learn},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <analyze-cls|diff-cls-oai|learn-remote>"
               " --seed N --seconds S --trace <0|1> --work-dir DIR [--trace-file F]\n",
               why);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir, trace_file;
  double seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else if (arg == "--trace-file") {
      trace_file = value;
    } else if (arg == "--seed" && parse_number(value, &seed)) {
    } else if (arg == "--seconds" && parse_number(value, &seconds)) {
    } else if (arg == "--trace" && parse_number(value, &trace)) {
    } else {
      return usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) return usage("unknown or missing --workload");
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) || work_dir.empty()) {
    return usage("--seed, --seconds, --trace and --work-dir are required");
  }

  const BuildStamp stamp = this_build();
  std::printf("# perfbench workload=%s seed=%.0f seconds=%g trace=%.0f nproc=%u build=%s"
              " sanitizers=%s\n",
              chosen->name, seed, seconds, trace, std::thread::hardware_concurrency(),
              stamp.build_type.c_str(), stamp.sanitizers.c_str());
  if (const std::string why = refusal_reason(stamp); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n", why.c_str());
    return 3;
  }

  RunOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  options.seconds = seconds;
  options.work_dir = work_dir;

  WorkloadResult result;
  if (trace == 0) {
    result = chosen->run(options);
  } else {
    // The attribution pass traces every workload, the chosen one first, so
    // each traced run reports every layer on the workload that exercises it.
    Tracer tracer;
    chosen->trace(options, tracer, result);
    for (const Workload& w : kWorkloads) {
      if (&w != chosen) w.trace(options, tracer, result);
    }
    if (!trace_file.empty()) {
      std::ofstream(trace_file) << tracer.chrome_json();
      std::printf("# spans written to %s\n", trace_file.c_str());
    }
  }

  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : result.metrics.items()) {
    std::printf("# %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# fail_rate %ld/%ld = %.4f\n", result.failed, result.attempted,
              fail_rate(result.failed, result.attempted));
  for (const std::string& m : result.mismatches) {
    std::fprintf(stderr, "perfbench: known-answer mismatch: %s\n", m.c_str());
  }
  std::printf("%s\n", result_json(result.mismatches.empty(), result.attempted, result.failed,
                                   result.metrics).c_str());
  std::fflush(stdout);
  return result.mismatches.empty() ? 0 : 1;
}
