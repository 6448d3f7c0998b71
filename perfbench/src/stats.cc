#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) { return percentile(samples, 50); }

double tail_percentile(std::size_t n) {
  for (double p : {95.0, 90.0, 75.0, 50.0}) {
    const double at = std::ceil(p / 100.0 * static_cast<double>(n));
    if (static_cast<double>(n) - at >= 10) return p;
  }
  return 100;
}

double fail_rate(long failed, long attempted) {
  return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0;
}

double covered_seconds(const Interval& within, std::vector<Interval> parts) {
  for (Interval& p : parts) {
    p.start = std::max(p.start, within.start);
    p.end = std::min(p.end, within.end);
  }
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0;
  double reach = within.start;
  for (const Interval& p : parts) {
    if (p.end <= p.start) continue;
    const double from = std::max(p.start, reach);
    if (p.end > from) {
      total += p.end - from;
      reach = p.end;
    }
  }
  return total;
}

double self_seconds(const Interval& span, const std::vector<Interval>& children) {
  return (span.end - span.start) - covered_seconds(span, children);
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_json(bool correct, long attempted, long failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    if (!first) out += ", ";
    first = false;
    out += procheck::json_quote(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + procheck::json_quote(m.unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
