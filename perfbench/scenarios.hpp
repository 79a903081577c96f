#pragma once
// The benchmark's generated inputs.  Every scenario list is a pure function
// of the workload seed, so the same seed always yields the same inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "service/scenario.hpp"

namespace lbperf {

namespace service = lb::service;

/// A scenario with the label it is reported under.
struct Named {
  std::string label;
  service::Scenario scenario;
};

/// bus_paper: all nine knownArbiters() on oversubscribed T9 (Fig. 12a),
/// lottery 1:2:3:4 on saturated T2 (Fig. 6a), TDMA on phase-locked T6
/// (Fig. 5), lottery on sparse T3, and one 4-replica lottery scenario.
std::vector<Named> busPaperScenarios(std::uint64_t seed);

/// mesh_paper: the two mesh presets plus transpose and hotspot variants of
/// the 4x4 lottery mesh.
std::vector<Named> meshPaperScenarios(std::uint64_t seed);

/// lbd_warm's prewarmed working set: 256 distinct scenarios, 3/4 of them
/// 4-master bus and 1/4 4x4 mesh.
std::vector<service::Scenario> warmScenarios(std::uint64_t seed);
inline constexpr std::size_t kWarmScenarios = 256;

/// lbd_cold's never-repeated bus scenario number `index`: arbiter, traffic
/// class, weights and RNG seed all derived from (seed, index).
service::Scenario coldScenario(std::uint64_t seed, std::uint64_t index);

/// SplitMix64 finalizer, for deriving per-scenario seeds.
std::uint64_t mix64(std::uint64_t z);

/// FNV-1a over the wire encoding of each result, in order.
std::uint64_t resultsDigest(const std::vector<service::ScenarioResult>& results);

}  // namespace lbperf
