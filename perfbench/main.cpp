// lbperf: the lotterybus benchmark program.
//
//   lbperf --workload bus_paper|mesh_paper|lbd_warm|lbd_cold --seed N
//          --seconds S --trace 0|1 [--rev REV] [--out-dir DIR]
//
// Prints the machine fingerprint and human-readable notes, then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced (--trace 0), the per-layer metrics traced
// (--trace 1).  Exits 0 only when every output check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "fingerprint.hpp"
#include "workloads.hpp"

namespace lbperf {

void ServiceSamples::merge(const ServiceSamples& o) {
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(parse, o.parse);
  append(decode, o.decode);
  append(cache_get, o.cache_get);
  append(cache_put, o.cache_put);
  append(encode, o.encode);
  append(execute, o.execute);
  append(queue_wait, o.queue_wait);
  append(server_self, o.server_self);
  shed += o.shed;
  timeouts += o.timeouts;
  retries += o.retries;
}

void addEndToEnd(Report& report, double setup_s, double mcycles_per_s,
                 double scenarios_per_s, double req_per_s,
                 const std::vector<double>& req_us,
                 const std::vector<double>& item_us) {
  std::vector<double> item_ms;
  for (const double us : item_us) item_ms.push_back(us / 1000);
  report.add("setup_s", setup_s, "s");
  report.add("sim_mcycles_per_s", mcycles_per_s, "Mcycle/s");
  report.add("scenarios_per_s", scenarios_per_s, "1/s");
  report.add("req_per_s", req_per_s, "1/s");
  addPercentile(report, "req_us_p50", "us", percentile(req_us, 0.50));
  addPercentile(report, "req_us_p99", "us", percentile(req_us, 0.99));
  addPercentile(report, "item_ms_p50", "ms", percentile(item_ms, 0.50));
  addPercentile(report, "item_ms_p99", "ms", percentile(item_ms, 0.99));
  report.add("peak_rss_mb", peakRssMb(), "MB");
}

void addLayerMetrics(Report& report, const LayerTotals& sim,
                     const ServiceSamples& service, double overhead_frac) {
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
  const auto cycles = static_cast<double>(sim.cycles);
  const auto bus_cycles = static_cast<double>(sim.bus_cycles);
  const auto mesh_cycles = static_cast<double>(sim.mesh_cycles);
  const double bus_arbiter_ns = sim.bus_arbiter.estimateNs();
  const double port_arbiter_ns = sim.port_arbiter.estimateNs();

  report.add("sim.kernel_ns_per_cycle", per(sim.kernel_ns, cycles), "ns");
  report.add("sim.skip_ratio", per(static_cast<double>(sim.skipped), cycles),
             "ratio");
  report.add("sim.build_us",
             per(sim.build_ns / 1000, static_cast<double>(sim.systems)), "us");
  report.add("arbiter.decide_ns", sim.arbiter.meanNs(), "ns");
  report.add("arbiter.lottery.decide_ns", sim.lottery.meanNs(), "ns");
  report.add("arbiter.decisions_per_kcycle",
             per(1000 * static_cast<double>(sim.arbiter.calls), cycles),
             "1/kcycle");
  report.add("arbiter.share", per(sim.arbiter.estimateNs(), sim.kernel_ns),
             "ratio");
  report.add("bus.self_ns_per_cycle",
             per(sim.bus.estimateNs() - bus_arbiter_ns, bus_cycles), "ns");
  report.add("traffic.source_ns_per_cycle",
             per(sim.sources.estimateNs(), cycles), "ns");
  report.add("noc.router_ns_per_cycle",
             per(sim.routers.estimateNs() - port_arbiter_ns, mesh_cycles), "ns");
  report.add("noc.ni_ns_per_cycle", per(sim.nis.estimateNs(), mesh_cycles),
             "ns");
  report.add("noc.port_arbiter_ns_per_cycle",
             per(port_arbiter_ns, mesh_cycles), "ns");
  report.add("noc.grants_per_kcycle",
             per(1000 * static_cast<double>(sim.noc_grants), mesh_cycles),
             "1/kcycle");

  report.add("json.parse_us", median(service.parse), "us");
  report.add("scenario.decode_us", median(service.decode), "us");
  report.add("cache.get_us", median(service.cache_get), "us");
  report.add("cache.put_us", median(service.cache_put), "us");
  report.add("cache.hit_ratio", service.hit_ratio, "ratio");
  report.add("result.encode_us", median(service.encode), "us");
  report.add("engine.execute_us", median(service.execute), "us");
  report.add("engine.queue_wait_us", median(service.queue_wait), "us");
  report.add("server.self_us", median(service.server_self), "us");
  report.add("engine.shed", static_cast<double>(service.shed), "count");
  report.add("engine.timeouts", static_cast<double>(service.timeouts), "count");
  report.add("client.retries", static_cast<double>(service.retries), "count");

  report.add("failed_frac",
             per(static_cast<double>(report.failed),
                 static_cast<double>(report.attempted)),
             "ratio");
  report.add("trace.overhead_frac", overhead_frac, "ratio");

  // server.self is the remainder of the round trip; a negative median means
  // the replayed stages overstate the server's work.
  if (!service.server_self.empty() && median(service.server_self) < 0)
    report.fail("server.self_us median is negative: replayed stages exceed "
                "the round trip");
}

void checkAttribution(Report& report, const LayerTotals& sim,
                      double traced_wall_ns) {
  // Self times: build, kernel (minus the component layers), each component
  // layer (bus and routers minus their arbiters), arbiters, collect.
  const double self_sum = sim.build_ns + sim.kernelSelfNs() +
                          sim.bus.estimateNs() + sim.sources.estimateNs() +
                          sim.routers.estimateNs() + sim.nis.estimateNs() +
                          sim.collect_ns;
  const double unattributed =
      traced_wall_ns > 0 ? (traced_wall_ns - self_sum) / traced_wall_ns : 0;
  report.add("trace.unattributed_frac", unattributed, "ratio");
  char line[200];
  std::snprintf(line, sizeof line,
                "attribution: self times sum to %.4f of the traced wall time "
                "(slack %.2f); kernel self %.1f%% of kernel time",
                1 - unattributed, kAttributionSlack,
                sim.kernel_ns > 0 ? 100 * sim.kernelSelfNs() / sim.kernel_ns
                                  : 0.0);
  report.notes.push_back(line);
  if (std::abs(unattributed) > kAttributionSlack)
    report.fail("per-layer self times do not sum to the traced wall time");
  if (sim.kernelSelfNs() < -kAttributionSlack * sim.kernel_ns)
    report.fail("sampled component times exceed the kernel time");
}

void writeTrace(const Args& args, const lb::obs::FlightRecorder& recorder,
                Report& report) {
  const std::string path = args.out_dir + "/trace_" + args.workload + "_seed" +
                           std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  recorder.writeChromeTrace(out);
  report.notes.push_back("spans: " + std::to_string(recorder.spanCount()) +
                         " written to " + path + " (" +
                         std::to_string(recorder.droppedSpans()) +
                         " dropped from the in-memory ring)");
  if (!out) report.fail("could not write " + path);
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lbperf: " << why
            << "\nusage: lbperf --workload bus_paper|mesh_paper|lbd_warm|"
               "lbd_cold --seed N --seconds S --trace 0|1 [--rev REV] "
               "[--out-dir DIR]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--rev") args.rev = value;
      else if (flag == "--out-dir") args.out_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

}  // namespace
}  // namespace lbperf

int main(int argc, char** argv) {
  using namespace lbperf;
  const Args args = parseArgs(argc, argv);
  Report (*run)(const Args&) = nullptr;
  if (args.workload == "bus_paper") run = runBusPaper;
  else if (args.workload == "mesh_paper") run = runMeshPaper;
  else if (args.workload == "lbd_warm") run = runLbdWarm;
  else if (args.workload == "lbd_cold") run = runLbdCold;
  else usage("unknown workload " + args.workload);

  const Fingerprint fingerprint = measureFingerprint(args.rev);
  std::cout << "fingerprint: " << toJson(fingerprint).dump() << "\n";
  std::cout << "workload " << args.workload << ", seed " << args.seed << ", "
            << args.seconds << " s, " << (args.trace ? "traced" : "untraced")
            << "\n"
            << std::flush;

  Report report;
  try {
    report = run(args);
  } catch (const std::exception& e) {
    std::cerr << "lbperf: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& note : report.notes) std::cout << "  " << note << "\n";
  service::Json metrics = service::Json::object();
  for (const Metric& m : report.metrics) {
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    service::Json entry = service::Json::object();
    entry.set("value", service::Json(m.value)).set("unit", service::Json(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  std::fflush(stdout);
  service::Json result = service::Json::object();
  result.set("correct", service::Json(report.correct))
      .set("attempted", service::Json(report.attempted))
      .set("failed", service::Json(report.failed))
      .set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return report.correct ? 0 : 1;
}
