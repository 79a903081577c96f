// Machine fingerprint printed with every result: CPU model, nproc, the
// effective parallelism a calibration spin measures (N threads against 1),
// compiler, build type and source revision.  nproc is only what the OS
// advertises; the spin is what threads of one process actually get.

#include "fingerprint.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace lbperf {
namespace {

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

/// A fixed amount of integer work that the optimizer cannot remove.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Wall time of `threads` threads each spinning `iterations` times.
double spinSeconds(unsigned threads, std::uint64_t iterations) {
  std::atomic<std::uint64_t> sink{0};
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&sink, iterations, t] {
      sink.fetch_add(spin(iterations, t + 1), std::memory_order_relaxed);
    });
  for (std::thread& thread : pool) thread.join();
  return secondsBetween(start, Clock::now());
}

}  // namespace

Fingerprint measureFingerprint(const std::string& rev) {
  Fingerprint f;
  f.cpu_model = cpuModel();
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  f.nproc = online > 0 ? static_cast<unsigned>(online) : 1;
  f.compiler = LBPERF_COMPILER;
  f.build_type = LBPERF_BUILD_TYPE;
  f.rev = rev;
  // Best of three alternating trials of 1 thread vs nproc threads, each
  // doing the same per-thread work: parallelism = nproc * T1 / TN.
  constexpr std::uint64_t kIterations = 20'000'000;
  double one = 1e300;
  double many = 1e300;
  for (int trial = 0; trial < 3; ++trial) {
    one = std::min(one, spinSeconds(1, kIterations));
    many = std::min(many, spinSeconds(f.nproc, kIterations));
  }
  f.effective_parallelism = static_cast<double>(f.nproc) * one / many;
  return f;
}

service::Json toJson(const Fingerprint& f) {
  service::Json json = service::Json::object();
  json.set("cpu_model", service::Json(f.cpu_model))
      .set("nproc", service::Json(static_cast<std::uint64_t>(f.nproc)))
      .set("effective_parallelism", service::Json(f.effective_parallelism))
      .set("compiler", service::Json(f.compiler))
      .set("build_type", service::Json(f.build_type))
      .set("rev", service::Json(f.rev));
  return json;
}

}  // namespace lbperf
