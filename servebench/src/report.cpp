// Host metadata, order statistics and the result line.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>

#include "bench.h"

namespace servebench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::int64_t llc_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return l3;
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) return l2;
#endif
  return 0;
}

double loadavg_1min() {
  std::ifstream in("/proc/loadavg");
  double load = std::numeric_limits<double>::quiet_NaN();
  in >> load;
  return load;
}

pbmg::Json host_metadata(const std::string& commit) {
  pbmg::Json host = pbmg::Json::object();
  host.set("commit", commit.empty() ? std::string("unknown") : commit);
#if defined(__clang__)
  host.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.set("compiler", std::string("gcc ") + __VERSION__);
#else
  host.set("compiler", std::string("unknown"));
#endif
  host.set("cpu", cpu_model());
  host.set("nproc", static_cast<std::int64_t>(
                        std::thread::hardware_concurrency()));
  host.set("llc_bytes", llc_bytes());
  host.set("loadavg", loadavg_1min());
  return host;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double wilson_upper(std::int64_t failed, std::int64_t attempted) {
  if (attempted <= 0) return 1.0;
  constexpr double z = 1.959963984540054;
  const double n = static_cast<double>(attempted);
  const double p = static_cast<double>(failed) / n;
  const double denom = 1.0 + z * z / n;
  const double centre = p + z * z / (2.0 * n);
  const double spread = z * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n));
  return std::min(1.0, (centre + spread) / denom);
}

void print_outcome(const Outcome& outcome, bool correct) {
  for (const std::string& note : outcome.notes) std::cout << note << '\n';
  pbmg::Json metrics = pbmg::Json::object();
  for (const Metric& m : outcome.metrics) {
    pbmg::Json entry = pbmg::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  pbmg::Json result = pbmg::Json::object();
  result.set("correct", correct);
  result.set("attempted", outcome.attempted);
  result.set("failed", outcome.failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
}

}  // namespace servebench
