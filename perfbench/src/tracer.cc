#include "tracer.h"

#include <functional>
#include <thread>

#include "common/json.h"

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

int Tracer::begin(const std::string& name, int parent, const std::string& request) {
  Span s;
  s.parent = parent;
  s.name = name;
  s.request = request;
  s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  s.start = now();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int>(spans_.size());
  s.end = s.start;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(int id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

double Tracer::total_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

std::vector<Span> Tracer::children(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.parent == id) out.push_back(s);
  }
  return out;
}

Span Tracer::span(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<std::size_t>(id)];
}

double Tracer::duration(int id) const {
  const Span s = span(id);
  return s.end - s.start;
}

double Tracer::self_seconds(int id) const {
  const Span s = span(id);
  std::vector<Interval> parts;
  for (const Span& c : children(id)) parts.push_back({c.start, c.end});
  return perfbench::self_seconds({s.start, s.end}, parts);
}

double Tracer::child_coverage(int id) const {
  const Span s = span(id);
  if (s.end <= s.start) return 0;
  std::vector<Interval> parts;
  for (const Span& c : children(id)) parts.push_back({c.start, c.end});
  return covered_seconds({s.start, s.end}, parts) / (s.end - s.start);
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  for (const Span& s : spans) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":" + procheck::json_quote(s.name) + ",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.thread % 100000) + ",\"ts\":" + json_number(s.start * 1e6) +
           ",\"dur\":" + json_number((s.end - s.start) * 1e6) + ",\"args\":{\"id\":" +
           std::to_string(s.id) + ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + procheck::json_quote(s.request) + "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
