#pragma once

#include <string>

#include "service/json.hpp"

namespace lbperf {

namespace service = lb::service;

struct Fingerprint {
  std::string cpu_model;
  unsigned nproc = 1;
  /// nproc * T(1 thread) / T(nproc threads) of a fixed calibration spin:
  /// how many of the advertised CPUs threads of this process really get.
  double effective_parallelism = 1;
  std::string compiler;
  std::string build_type;
  std::string rev;
};

Fingerprint measureFingerprint(const std::string& rev);
service::Json toJson(const Fingerprint& f);

}  // namespace lbperf
