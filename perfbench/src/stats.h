// Sample statistics and metric bookkeeping shared by every workload.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);
double median(const std::vector<double>& samples);

/// The tail rule: the highest percentile of {95, 90, 75, 50} that still has
/// at least ten samples strictly beyond its rank (n - ceil(p/100 * n) >= 10);
/// 100 (the maximum) when even p50 has fewer than ten samples beyond it.
/// Capped at p95 so the reported tail means the same thing whether a run
/// collects 300 or 3000 samples.
double tail_percentile(std::size_t n);

/// Failure share with its base: failed / attempted (0 when nothing was
/// attempted).
double fail_rate(long failed, long attempted);

/// Half-open time interval in seconds.
struct Interval {
  double start = 0;
  double end = 0;
};

/// Total length covered by the union of `parts`, clipped to `within`.
double covered_seconds(const Interval& within, std::vector<Interval> parts);

/// Self time of a span: its duration minus the part of it its children
/// cover (overlapping children, e.g. parallel workers, count once).
double self_seconds(const Interval& span, const std::vector<Interval>& children);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Append-only list of named metrics in report order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Every digit of a double, as a JSON number ("0" for non-finite values).
std::string json_number(double v);

/// The result object a run prints as its last line.
std::string result_json(bool correct, long attempted, long failed, const Metrics& metrics);

}  // namespace perfbench
