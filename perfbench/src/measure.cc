#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void set_end_to_end(WorkloadResult& out, const std::vector<double>& op_walls,
                    double ops_cpu, const std::string& op_name) {
  const double ops = static_cast<double>(std::max<std::size_t>(op_walls.size(), 1));
  const double tail_p = tail_percentile(op_walls.size());
  out.metrics.set("wall_s", median(op_walls), "s");
  out.metrics.set("cpu_s", ops_cpu / ops, "s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
  char line[160];
  std::snprintf(line, sizeof(line), "%s: %zu samples, p50 %.4f s, p%g %.4f s", op_name.c_str(),
                op_walls.size(), median(op_walls), tail_p, percentile(op_walls, tail_p));
  out.notes.push_back(line);
}

void set_fastest_end_to_end(WorkloadResult& out, const std::vector<double>& op_walls,
                            const std::vector<double>& op_cpus, const std::string& op_name) {
  const double tail_p = tail_percentile(op_walls.size());
  out.metrics.set("wall_s", percentile(op_walls, 0), "s");
  out.metrics.set("cpu_s", percentile(op_cpus, 0), "s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
  char line[192];
  std::snprintf(line, sizeof(line), "%s: %zu samples, fastest %.4f s, p50 %.4f s, p%g %.4f s",
                op_name.c_str(), op_walls.size(), percentile(op_walls, 0), median(op_walls), tail_p,
                percentile(op_walls, tail_p));
  out.notes.push_back(line);
}

}  // namespace perfbench
