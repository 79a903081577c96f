#pragma once
// The traced simulation path: rebuilds a scenario from the library's public
// constructors (makeArbiter / makeRouterArbiterFactory, paramsFor, Bus or
// MeshNetwork, TrafficSource), wraps every clocked component and every
// arbiter in a passive timing decorator, and runs it on a CycleKernel.
//
// The wrappers forward every call unchanged, so the traced run's results
// must equal runScenario's bit for bit (the workloads check this).  Each
// layer's components (all sources, all NIs, all routers, the bus) sit behind
// one timing wrapper that times a pseudo-random 1 in 16 of the cycles; an
// arbiter decision is timed when it happens inside a sampled cycle, and
// counted always.  Layer totals are the sampled mean scaled by the exact
// count.  The cost of timing itself is measured in place: every system also
// runs an empty wrapper, and its mean sampled time is removed from every
// timed call.

#include <cstdint>
#include <string>

#include "obs/flight_recorder.hpp"
#include "service/scenario.hpp"

namespace lbperf {

namespace service = lb::service;

/// Sampled timings of one clocked layer (bus, sources, routers, NIs) or of
/// one arbiter population.
struct LayerClock {
  std::uint64_t calls = 0;    ///< every executed cycle / every decision
  std::uint64_t sampled = 0;  ///< calls that were timed
  std::uint64_t nested = 0;   ///< timed decisions inside the timed calls
  double sampled_ns = 0;      ///< their total duration, timer cost removed
  /// Estimated total time of all calls.
  double estimateNs() const {
    return sampled == 0 ? 0
                        : sampled_ns * static_cast<double>(calls) /
                              static_cast<double>(sampled);
  }
  double meanNs() const {
    return sampled == 0 ? 0 : sampled_ns / static_cast<double>(sampled);
  }
  void merge(const LayerClock& o) {
    calls += o.calls;
    sampled += o.sampled;
    nested += o.nested;
    sampled_ns += o.sampled_ns;
  }
};

/// Per-layer totals of a set of traced scenario runs.
struct LayerTotals {
  std::uint64_t systems = 0;      ///< systems built (replicas count apart)
  std::uint64_t cycles = 0;       ///< simulated cycles, all systems
  std::uint64_t bus_cycles = 0;   ///< ... of bus systems
  std::uint64_t mesh_cycles = 0;  ///< ... of mesh systems
  std::uint64_t skipped = 0;      ///< CycleKernel::cyclesSkipped()
  std::uint64_t noc_grants = 0;
  double build_ns = 0;    ///< system construction
  double kernel_ns = 0;   ///< CycleKernel::run
  double collect_ns = 0;  ///< statistics -> ScenarioResult
  LayerClock bus, sources, routers, nis;
  LayerClock arbiter;       ///< every arbiter decision (bus and router ports)
  LayerClock lottery;       ///< decisions of lottery arbiters only
  LayerClock bus_arbiter;   ///< decisions made inside Bus::cycle
  LayerClock port_arbiter;  ///< decisions made inside Router::cycle
  LayerClock probe;         ///< the no-op component: the cost of timing

  void merge(const LayerTotals& o);

  /// Kernel time not covered by the component layers: dispatch, quiescence
  /// probes, fast-forward bookkeeping.
  double kernelSelfNs() const;
};

/// Runs `scenario` through the traced path, adding its timings to `totals`
/// and its spans (scenario -> sim.build / sim.kernel -> layers /
/// result.collect) to `recorder` under `trace_id`.
service::ScenarioResult tracedRunScenario(const service::Scenario& scenario,
                                          const std::string& label,
                                          LayerTotals& totals,
                                          lb::obs::FlightRecorder& recorder,
                                          std::uint64_t trace_id);

}  // namespace lbperf
