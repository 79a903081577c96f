#pragma once
// Shared plumbing for the lbperf benchmark program: command-line arguments,
// the per-run report every workload fills in, wall-clock helpers, and the
// honest-percentile summary used for every latency metric.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace lbperf {

namespace service = lb::service;

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double microsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The seed whose bus_paper / mesh_paper results are pinned by digest.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string rev = "unknown";   ///< source revision, from run.py
  std::string out_dir = ".";     ///< where the traced run writes its spans
};

/// One named metric of a run.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one invocation reports.  `metrics` holds the end-to-end set
/// (untraced run) or the per-layer set (traced run); `notes` are printed as
/// human-readable lines before the final JSON line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed correctness check: the run is marked incorrect and
  /// the reason printed.
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

// ---------------------------------------------------------------------------
// Statistics (stats.cpp)
// ---------------------------------------------------------------------------

double median(std::vector<double> values);

/// A nearest-rank percentile with the sample counts that make it honest:
/// `beyond` is how many samples lie strictly above its rank.  A percentile
/// with fewer than kMinBeyond samples beyond it is reported as missing.
struct Percentile {
  double q = 0;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool available() const;
};
inline constexpr std::size_t kMinBeyond = 10;

Percentile percentile(std::vector<double> values, double q);

/// Samples a latency series needs for its p99 to have kMinBeyond samples
/// beyond it.
inline constexpr std::size_t kSamplesForP99 = 100 * kMinBeyond;

/// "p99=123.4 (n=1500, 15 beyond)" or "p99=missing (n=700, 7 beyond)".
std::string describe(const char* label, const Percentile& p);

/// Adds `name` with the percentile's value, and notes its sample count; a
/// missing percentile fails the run, since every metric must carry a value.
void addPercentile(Report& report, const std::string& name,
                   const std::string& unit, const Percentile& p);

/// 64-bit FNV-1a, the same hash the service uses to content-address
/// scenarios.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);
std::string hex64(std::uint64_t v);

/// Peak resident set size of this process, in MB.
double peakRssMb();

}  // namespace lbperf
