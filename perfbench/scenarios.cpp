#include "scenarios.hpp"

#include <utility>

#include "common.hpp"

namespace lbperf {
namespace {

// Cycle budgets.  Each is sized so that one scenario call takes a few
// milliseconds on the reference machine (README.md), which gives every
// latency percentile enough samples inside one run.
constexpr lb::sim::Cycle kBusPaperCycles = 100'000;
constexpr lb::sim::Cycle kMeshPaperCycles = 2'000;
constexpr lb::sim::Cycle kWarmBusCycles = 20'000;
constexpr lb::sim::Cycle kWarmMeshCycles = 1'000;
constexpr lb::sim::Cycle kColdCycles = 80'000;

const char* const kClasses[] = {"T1", "T2", "T3", "T4", "T5",
                                "T6", "T7", "T8", "T9"};

service::Scenario busScenario(const std::string& arbiter,
                              const std::string& cls, std::uint64_t seed) {
  service::Scenario s;
  s.arbiter = arbiter;
  s.weights = {1, 2, 3, 4};
  s.traffic_class = cls;
  s.cycles = kBusPaperCycles;
  s.seed = seed;
  return service::normalized(s);
}

/// `n` distinct weights drawn from `h`: a permutation of 1..n, each
/// optionally raised by n (static priority needs them distinct).
std::vector<std::uint32_t> weightsFrom(std::uint64_t h, std::uint32_t n) {
  std::vector<std::uint32_t> w(n);
  for (std::uint32_t i = 0; i < n; ++i) w[i] = i + 1;
  for (std::uint32_t i = n - 1; i > 0; --i) {
    std::swap(w[i], w[(h >> (4 * i)) % (i + 1)]);
  }
  for (std::uint32_t i = 0; i < n; ++i) w[i] += n * ((h >> (40 + i)) & 1);
  return w;
}

}  // namespace

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<Named> busPaperScenarios(std::uint64_t seed) {
  std::vector<Named> out;
  std::uint64_t n = 0;
  const auto next = [&] { return mix64(seed * 1000 + ++n); };
  for (const std::string& kind : service::knownArbiters())
    out.push_back({"fig12a-T9-" + kind, busScenario(kind, "T9", next())});
  out.push_back({"fig6a-T2-lottery", busScenario("lottery", "T2", next())});
  out.push_back({"fig5-T6-tdma", busScenario("tdma", "T6", next())});
  out.push_back({"sparse-T3-lottery", busScenario("lottery", "T3", next())});
  service::Scenario replicated = busScenario("lottery", "T2", next());
  replicated.replicas = 4;
  out.push_back({"replicas4-T2-lottery", service::normalized(replicated)});
  return out;
}

std::vector<Named> meshPaperScenarios(std::uint64_t seed) {
  std::vector<Named> out;
  std::uint64_t n = 0;
  const auto make = [&](const std::string& label, const std::string& preset,
                        const std::string& pattern) {
    service::Scenario s = service::meshPreset(preset);
    s.cycles = kMeshPaperCycles;
    s.seed = mix64(seed * 1000 + 500 + ++n);
    if (!pattern.empty()) s.mesh.pattern = pattern;
    out.push_back({label, service::normalized(s)});
  };
  make("mesh4x4-lottery", "mesh4x4-lottery", "");
  make("mesh6x6-sesc", "mesh6x6-sesc", "");
  make("mesh4x4-lottery-transpose", "mesh4x4-lottery", "transpose");
  make("mesh4x4-lottery-hotspot", "mesh4x4-lottery", "hotspot");
  return out;
}

std::vector<service::Scenario> warmScenarios(std::uint64_t seed) {
  static const char* const kPatterns[] = {"uniform", "transpose", "neighbor",
                                          "hotspot"};
  const auto& kinds = service::knownArbiters();
  std::vector<service::Scenario> out;
  for (std::size_t i = 0; i < kWarmScenarios; ++i) {
    const std::uint64_t h = mix64(mix64(seed) + 0x5752 + i);
    service::Scenario s;
    s.arbiter = kinds[h % kinds.size()];
    s.traffic_class = kClasses[(h >> 8) % 9];
    s.seed = h;
    if (i % 4 == 3) {  // one in four is a 4x4 mesh
      s.mesh.width = 4;
      s.mesh.height = 4;
      s.mesh.pattern = kPatterns[(h >> 16) % 4];
      s.weights = weightsFrom(h, lb::noc::kNumPorts);
      s.cycles = kWarmMeshCycles;
    } else {
      s.weights = weightsFrom(h, 4);
      s.cycles = kWarmBusCycles;
    }
    out.push_back(service::normalized(s));
  }
  return out;
}

service::Scenario coldScenario(std::uint64_t seed, std::uint64_t index) {
  const auto& kinds = service::knownArbiters();
  const std::uint64_t h = mix64(mix64(seed) + 0xC01D0000ull + index);
  service::Scenario s;
  s.arbiter = kinds[h % kinds.size()];
  s.traffic_class = kClasses[(h >> 8) % 9];
  s.weights = weightsFrom(h, 4);
  s.cycles = kColdCycles;
  s.seed = h;
  return service::normalized(s);
}

std::uint64_t resultsDigest(
    const std::vector<service::ScenarioResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const service::ScenarioResult& r : results)
    h = fnv1a(service::toJson(r).dump(), h);
  return h;
}

}  // namespace lbperf
