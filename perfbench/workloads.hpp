#pragma once
// The four workloads.  Each runs untraced (end-to-end metrics) or traced
// (per-layer metrics) according to args.trace; see README.md for why each
// workload exists and which layer metric should move which end-to-end one.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "traced_sim.hpp"

namespace lbperf {

Report runBusPaper(const Args& args);
Report runMeshPaper(const Args& args);
Report runLbdWarm(const Args& args);
Report runLbdCold(const Args& args);

/// Adds every end-to-end metric, in BENCHMARK.json order.  `req_us` holds
/// one latency per request, `item_us` one per scenario result.
void addEndToEnd(Report& report, double setup_s, double mcycles_per_s,
                 double scenarios_per_s, double req_per_s,
                 const std::vector<double>& req_us,
                 const std::vector<double>& item_us);

/// Per-request service-layer timings of a traced lbd run, in microseconds.
/// Each vector holds one sample per request (lbd_warm) or per batch item
/// (lbd_cold); cache_put, execute and queue_wait only for cache misses.
struct ServiceSamples {
  std::vector<double> parse, decode, cache_get, cache_put, encode, execute,
      queue_wait, server_self;
  double hit_ratio = 0;
  std::uint64_t shed = 0, timeouts = 0, retries = 0;

  void merge(const ServiceSamples& o);
};

/// Adds every per-layer metric but trace.unattributed_frac (checkAttribution
/// adds that one).  Layers that do no work on a workload (the service on
/// bus_paper, the mesh on lbd_cold, ...) report 0.
void addLayerMetrics(Report& report, const LayerTotals& sim,
                     const ServiceSamples& service, double overhead_frac);

/// Self times of the traced simulation layers must cover the traced wall
/// time within kAttributionSlack, and no layer's self time may be negative
/// beyond it.  Notes the unattributed share; fails the run otherwise.
inline constexpr double kAttributionSlack = 0.05;
void checkAttribution(Report& report, const LayerTotals& sim,
                      double traced_wall_ns);

/// Writes the traced run's spans as Chrome trace JSON under args.out_dir.
void writeTrace(const Args& args, const lb::obs::FlightRecorder& recorder,
                Report& report);

/// The measurement window: at least `seconds`, extended (up to 3x) until
/// the latency series holds kSamplesForP99 samples.
class Window {
public:
  explicit Window(double seconds) : seconds_(seconds), start_(Clock::now()) {}
  bool open(std::size_t samples) const {
    const double elapsed = secondsBetween(start_, Clock::now());
    if (elapsed < seconds_) return true;
    return samples < kSamplesForP99 && elapsed < 3 * seconds_;
  }
  Clock::time_point start() const { return start_; }

private:
  double seconds_;
  Clock::time_point start_;
};

}  // namespace lbperf
