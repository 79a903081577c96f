#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "common.hpp"

namespace lbperf {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool Percentile::available() const { return beyond >= kMinBeyond; }

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.q = q;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest sample with at least q of the data at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  p.value = values[index];
  p.beyond = values.size() - 1 - index;
  return p;
}

std::string describe(const char* label, const Percentile& p) {
  char buffer[160];
  if (p.available())
    std::snprintf(buffer, sizeof buffer, "%s=%.6g (n=%zu, %zu beyond)", label,
                  p.value, p.samples, p.beyond);
  else
    std::snprintf(buffer, sizeof buffer, "%s=missing (n=%zu, %zu beyond)",
                  label, p.samples, p.beyond);
  return buffer;
}

void addPercentile(Report& report, const std::string& name,
                   const std::string& unit, const Percentile& p) {
  report.notes.push_back(describe(name.c_str(), p));
  if (!p.available())
    report.fail(name + " has fewer than 10 samples beyond it");
  report.add(name, p.value, unit);
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec(), so under
  // a launcher it can report the launcher's peak instead of ours.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0;
}

}  // namespace lbperf
