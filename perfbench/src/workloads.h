// The three workloads. Each has an untraced form (end-to-end metrics, the
// numbers a regression is judged on) and a traced form (per-layer
// attribution from spans the benchmark records around the calls it makes).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "tracer.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Writable directory inside the checkout (learn journals live here).
  std::string work_dir;
};

struct WorkloadResult {
  long attempted = 0;
  long failed = 0;
  /// Known-answer differences; any entry makes the run incorrect.
  std::vector<std::string> mismatches;
  Metrics metrics;
  /// Human-readable lines printed before the result object.
  std::vector<std::string> notes;
};

// Every workload reports the same end-to-end metric names (see GLOSSARY.md
// for what an operation is on each):
//   wall_s, setup_s, cpu_s, peak_rss_mb.
WorkloadResult run_analyze(const RunOptions& options);
WorkloadResult run_diff(const RunOptions& options);
WorkloadResult run_learn(const RunOptions& options);

/// Traced forms: one traced pass of the workload plus an untraced pass of
/// the same work for the tracing-overhead figure. Per-layer metrics land in
/// `out.metrics`; the workload's root span is a child of nothing.
void trace_analyze(const RunOptions& options, Tracer& tracer, WorkloadResult& out);
void trace_diff(const RunOptions& options, Tracer& tracer, WorkloadResult& out);
void trace_learn(const RunOptions& options, Tracer& tracer, WorkloadResult& out);

// --- helpers shared by the workloads ---------------------------------------

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process so far.
double process_cpu_seconds();
/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();

/// Sets wall_s, cpu_s and peak_rss_mb from per-operation wall times and the
/// process CPU time the operations took in total, and notes the operation
/// count with the p50 and the tail (tail_percentile) of the wall times.
void set_end_to_end(WorkloadResult& out, const std::vector<double>& op_walls,
                    double ops_cpu, const std::string& op_name);

/// For operations that repeat the same deterministic work (analyze-cls,
/// diff-cls-oai): wall_s and cpu_s are the fastest operation's wall and CPU
/// time, since what differs between the operations is the shared host's
/// interference, not the program's work. Sets peak_rss_mb, and notes the
/// operation count with the fastest, p50 and tail wall times.
void set_fastest_end_to_end(WorkloadResult& out, const std::vector<double>& op_walls,
                            const std::vector<double>& op_cpus, const std::string& op_name);

}  // namespace perfbench
