// In-memory span recorder for the traced run. Spans are opened and closed
// only by the benchmark's own code, around calls into the ProChecker
// modules' public functions; nothing inside the program is instrumented.
// Spans stay in memory until the run ends, then are summarised and written
// out once as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  int id = -1;
  int parent = -1;      // -1 for a root span
  std::string name;     // "<module>.<function>", e.g. "checker.check_property"
  std::string request;  // shared by every span of one property / learn / diff side
  double start = 0;     // seconds since the tracer was created
  double end = 0;
  std::uint64_t thread = 0;
};

class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span and returns its id. Thread-safe.
  int begin(const std::string& name, int parent = -1, const std::string& request = "");
  void end(int id);

  Span span(int id) const;
  /// Seconds between a span's open and close.
  double duration(int id) const;
  /// Summed duration of every span named `name`.
  double total_seconds(const std::string& name) const;
  /// Direct children of span `id`, in open order.
  std::vector<Span> children(int id) const;

  /// Span duration minus what its direct children cover.
  double self_seconds(int id) const;
  /// Share of span `id` covered by its direct children (the top-level
  /// spans of a workload root).
  double child_coverage(int id) const;

  /// Chrome trace-event JSON of every span ("ph":"X", microseconds).
  std::string chrome_json() const;

 private:
  /// Seconds since the tracer was created (the span clock).
  double now() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction. A null tracer
/// records nothing, so one code path serves traced and untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1,
             const std::string& request = "")
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
