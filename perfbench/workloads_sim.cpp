// bus_paper and mesh_paper: paper scenarios run in process, one after
// another, through service::runScenario (untraced) or the traced rebuild.

#include <sched.h>

#include <algorithm>
#include <cmath>

#include "scenarios.hpp"
#include "workloads.hpp"

namespace lbperf {
namespace {

// Digests of the reference pass at kDefaultSeed (scenarios.cpp sizes).
constexpr std::uint64_t kPinnedBusPaper = 0x7de298037481cb8dull;
constexpr std::uint64_t kPinnedMeshPaper = 0x8a0e4f308a903db1ull;

constexpr int kSetups = 3;

std::uint64_t simulatedCycles(const service::Scenario& s) {
  return s.cycles * std::max<std::uint32_t>(1, s.replicas);
}

/// Checks that hold at any seed: every rate is finite and within [0, 1],
/// and the system made progress.
void checkSane(Report& report, const std::string& label,
               const service::ScenarioResult& r) {
  bool ok = r.grants > 0 && r.unutilized_fraction >= -1e-9 &&
            r.unutilized_fraction <= 1 + 1e-9;
  for (const double f : r.bandwidth_fraction)
    ok = ok && std::isfinite(f) && f >= 0 && f <= 1;
  for (const double f : r.traffic_share)
    ok = ok && std::isfinite(f) && f >= 0 && f <= 1;
  if (!ok) report.fail(label + ": result out of range");
}

using Maker = std::vector<Named> (*)(std::uint64_t);

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per pass, and restores its original mask when destroyed.  The host
/// slows single vCPUs independently for seconds at a time, so a
/// single-threaded loop left on one CPU measures that CPU's luck; rotating
/// pass by pass makes every run sample every CPU alike, while each pass
/// keeps its caches warm.
class CpuRotation {
public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t step_ = 0;
};

Report runTraced(const Args& args, Report report, const std::vector<Named>& list,
                 const std::vector<service::ScenarioResult>& reference,
                 CpuRotation& rotation) {
  // Untraced passes first, for the tracing-overhead figure.
  std::vector<double> untraced_pass_s;
  const auto untraced_start = Clock::now();
  while (untraced_pass_s.size() < 2 ||
         secondsBetween(untraced_start, Clock::now()) < 0.3 * args.seconds) {
    rotation.next();
    const auto t0 = Clock::now();
    for (const Named& n : list) service::runScenario(n.scenario);
    untraced_pass_s.push_back(secondsBetween(t0, Clock::now()));
  }

  lb::obs::FlightRecorder recorder(1 << 18);
  recorder.setEnabled(true);
  LayerTotals totals;
  std::vector<double> traced_pass_s;
  const auto start = Clock::now();
  while (traced_pass_s.empty() ||
         secondsBetween(start, Clock::now()) < args.seconds) {
    rotation.next();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < list.size(); ++i) {
      const service::ScenarioResult r = tracedRunScenario(
          list[i].scenario, list[i].label, totals, recorder,
          lb::obs::mintTraceId());
      ++report.attempted;
      if (r != reference[i]) {
        ++report.failed;
        report.fail(list[i].label + ": traced result differs from untraced");
      }
    }
    traced_pass_s.push_back(secondsBetween(t0, Clock::now()));
  }
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             Clock::now() - start).count();
  const double overhead =
      median(traced_pass_s) / median(untraced_pass_s) - 1;
  report.notes.push_back("traced passes: " +
                         std::to_string(traced_pass_s.size()) +
                         ", untraced passes: " +
                         std::to_string(untraced_pass_s.size()));
  checkAttribution(report, totals, wall_ns);
  addLayerMetrics(report, totals, ServiceSamples{}, overhead);
  writeTrace(args, recorder, report);
  return report;
}

Report runSim(const Args& args, const std::string& name, Maker make,
              std::uint64_t pinned) {
  Report report;
  // Set-up, kSetups times: generate and normalize the inputs, then run one
  // pass, which is also the reference every later pass must reproduce.
  std::vector<Named> list;
  std::vector<service::ScenarioResult> reference;
  std::vector<double> setups;
  CpuRotation rotation;
  for (int k = 0; k < kSetups; ++k) {
    rotation.next();
    const auto t0 = Clock::now();
    std::vector<Named> made = make(args.seed);
    std::vector<service::ScenarioResult> results;
    for (const Named& n : made) results.push_back(service::runScenario(n.scenario));
    setups.push_back(secondsBetween(t0, Clock::now()));
    if (k == 0) {
      list = std::move(made);
      reference = std::move(results);
    } else if (results != reference) {
      report.fail("set-up pass " + std::to_string(k) +
                  " differs from the first");
    }
  }
  for (std::size_t i = 0; i < list.size(); ++i)
    checkSane(report, list[i].label, reference[i]);
  const std::uint64_t digest = resultsDigest(reference);
  report.notes.push_back(name + " results digest: 0x" + hex64(digest));
  if (args.seed != kDefaultSeed)
    report.notes.push_back("seed " + std::to_string(args.seed) +
                           " is held out from pinning: digest not checked");
  else if (digest != pinned)
    report.fail(name + " digest 0x" + hex64(digest) + " != pinned 0x" +
                hex64(pinned));

  if (args.trace)
    return runTraced(args, std::move(report), list, reference, rotation);

  Window window(args.seconds);
  std::vector<double> latency_us;
  double busy_s = 0;  // the passes' time, without the moves between CPUs
  std::uint64_t cycles = 0;
  std::size_t passes = 0;
  while (window.open(latency_us.size())) {
    rotation.next();
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto t0 = Clock::now();
      const service::ScenarioResult r = service::runScenario(list[i].scenario);
      latency_us.push_back(microsBetween(t0, Clock::now()));
      cycles += simulatedCycles(list[i].scenario);
      ++report.attempted;
      if (r != reference[i]) {
        ++report.failed;
        report.fail(list[i].label + ": result differs from the reference");
      }
    }
    busy_s += secondsBetween(pass_start, Clock::now());
    ++passes;
  }
  report.notes.push_back(
      "rates: " + std::to_string(passes) + " passes of " +
      std::to_string(list.size()) + " scenarios on one thread in " +
      std::to_string(busy_s) + " s; setup_s: median of " +
      std::to_string(kSetups) + " set-ups");
  const double scenarios_per_s =
      static_cast<double>(latency_us.size()) / busy_s;
  // One request is one runScenario call here, so req_* and item_* time the
  // same calls.
  addEndToEnd(report, median(setups),
              static_cast<double>(cycles) / busy_s / 1e6, scenarios_per_s,
              scenarios_per_s, latency_us, latency_us);
  return report;
}

}  // namespace

Report runBusPaper(const Args& args) {
  return runSim(args, "bus_paper", busPaperScenarios, kPinnedBusPaper);
}

Report runMeshPaper(const Args& args) {
  return runSim(args, "mesh_paper", meshPaperScenarios, kPinnedMeshPaper);
}

}  // namespace lbperf
