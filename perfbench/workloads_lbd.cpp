// lbd_warm and lbd_cold: closed loops of blocking service::Client
// connections against an lbd server hosted in this process on an ephemeral
// loopback port.  Every result is checked against in-process runScenario of
// the same scenario.
//
// The traced run additionally replays each request through the public calls
// the server makes (Json::parse, scenarioFromJson + normalized +
// scenarioHash, ResultCache get/put, JobEngine, toJson(result).dump()) on a
// mirror JobEngine configured like the server's, and attributes the rest of
// the round trip to the server itself (wire, event loop, dispatch).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "scenarios.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace lbperf {
namespace {

using service::Json;

/// Set-ups per run; setup_s is their median.
constexpr int kWarmSetups = 3;
constexpr int kColdSetups = 5;
constexpr std::size_t kBatchSize = 4;
/// First scenario index of the set-up warm-up batches, far from the indices
/// the measured batches use.
constexpr std::uint64_t kWarmupIndexBase = 1ull << 40;
/// lbd_cold results rebuilt through the traced path in the traced run.
constexpr std::size_t kAttributed = 256;

/// Load-generator threads = connections: never more than nproc.
std::size_t loadThreads() {
  return std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
}

/// lbd's own defaults (examples/lbd.cpp) on an ephemeral port, with engine
/// workers = load threads <= nproc.
service::ServerOptions serverOptions() {
  service::ServerOptions o;
  o.port = 0;
  o.engine.workers = loadThreads();
  o.engine.shed_when_full = true;
  o.read_deadline = std::chrono::milliseconds(300000);
  return o;
}

/// The server plus one client per load thread.
struct Lbd {
  std::unique_ptr<service::Server> server;
  std::vector<std::unique_ptr<service::Client>> clients;

  Lbd() {
    server = std::make_unique<service::Server>(serverOptions());
    server->start();
    for (std::size_t c = 0; c < loadThreads(); ++c) {
      service::ClientOptions o;
      o.port = server->port();
      o.deadline = std::chrono::milliseconds(60000);
      o.retry_seed = c + 1;
      clients.push_back(std::make_unique<service::Client>(o));
    }
  }
  ~Lbd() {
    clients.clear();
    if (server) server->stop();
  }
  Lbd(const Lbd&) = delete;
  Lbd& operator=(const Lbd&) = delete;

  std::uint64_t retries() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->retries();
    return n;
  }
};

/// Runs body(thread index) on loadThreads() threads and joins them.
template <class Body>
void onLoadThreads(Body body) {
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < loadThreads(); ++c)
    threads.emplace_back([&body, c] { body(c); });
  for (std::thread& t : threads) t.join();
}

/// Thread-safe failure tally for load threads.
struct Failures {
  std::mutex mutex;
  std::uint64_t count = 0;
  std::string first;
  void add(const std::string& why, std::uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mutex);
    if (count == 0) first = why;
    count += n;
  }
  void into(Report& report) {
    report.failed += count;
    if (count > 0)
      report.fail(std::to_string(count) + " failed requests; first: " + first);
  }
};

/// A response's result equals the reference, or the reason it does not.
std::string mismatch(const Json& response,
                     const service::ScenarioResult& reference) {
  const Json* ok = response.find("ok");
  if (ok == nullptr || !ok->isBool() || !ok->asBool())
    return "not ok: " + response.dump().substr(0, 200);
  try {
    if (service::resultFromJson(response.at("result")) != reference)
      return "result differs from in-process runScenario";
  } catch (const std::exception& e) {
    return std::string("malformed result: ") + e.what();
  }
  return "";
}

double usSince(Clock::time_point t0) { return microsBetween(t0, Clock::now()); }

std::uint64_t cacheLookups(const service::CacheStats& c) {
  return c.hits + c.disk_hits + c.misses;
}

/// Engine counters across a measured window.
struct EngineDelta {
  service::JobEngineStats before;
  void start(service::Server& s) { before = s.engine().stats(); }
  void into(ServiceSamples& out, service::Server& s) const {
    const service::JobEngineStats after = s.engine().stats();
    const std::uint64_t lookups =
        cacheLookups(after.cache) - cacheLookups(before.cache);
    const std::uint64_t hits = after.cache.hits + after.cache.disk_hits -
                               before.cache.hits - before.cache.disk_hits;
    out.hit_ratio = lookups == 0 ? 0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(lookups);
    out.shed += after.shed - before.shed;
    out.timeouts += after.timeouts - before.timeouts;
  }
};

/// The request line a Client writes for `verb` with `member` = `payload`.
std::string requestLine(const char* verb, const char* member,
                        const Json& payload) {
  Json wire = Json::object();
  wire.set("verb", Json(verb)).set(member, payload);
  Json trace = Json::object();
  trace.set("id", Json(lb::obs::traceIdHex(lb::obs::mintTraceId())))
      .set("span", Json(lb::obs::traceIdHex(lb::obs::mintTraceId())));
  wire.set("trace", trace);
  return wire.dump();
}

/// Records a request's span tree: the measured round trip as the root and
/// the replayed public-call stages laid inside it, server.self last.
void recordRequestSpans(lb::obs::FlightRecorder& recorder, const char* name,
                        Clock::time_point t0, double rt_us,
                        const std::vector<std::pair<const char*, double>>&
                            stages) {
  if (!recorder.enabled()) return;
  lb::obs::FlightRecorder::Span root;
  root.trace_id = lb::obs::mintTraceId();
  root.span_id = lb::obs::mintTraceId();
  root.name = name;
  root.note = "round trip";
  root.ts_us = recorder.toMicros(t0);
  root.dur_us = rt_us;
  root.tid = lb::obs::FlightRecorder::currentTid();
  recorder.record(root);
  double at = root.ts_us;
  for (const auto& [stage, us] : stages) {
    lb::obs::FlightRecorder::Span span = root;
    span.span_id = lb::obs::mintTraceId();
    span.parent_id = root.span_id;
    span.name = stage;
    span.note = "replayed public call";
    span.ts_us = at;
    span.dur_us = std::max(0.0, us);
    recorder.record(span);
    at += span.dur_us;
  }
}

/// Completions per second over a whole window, noted with their basis.
double rate(Report& report, const char* what, double count, double seconds) {
  report.notes.push_back("rates: " +
                         std::to_string(static_cast<std::uint64_t>(count)) +
                         " " + what +
                         " in " + std::to_string(seconds) + " s");
  return count / seconds;
}

void noteLoad(Report& report) {
  report.notes.push_back(
      "load: closed loop, " + std::to_string(loadThreads()) + " threads, " +
      std::to_string(loadThreads()) + " connections, engine workers " +
      std::to_string(serverOptions().engine.workers));
}

// ---------------------------------------------------------------------------
// lbd_warm
// ---------------------------------------------------------------------------

/// Per-thread output of a closed loop.
struct LoopOut {
  std::vector<double> req_us;
  std::vector<double> item_us;
  double cycles = 0;  ///< simulated cycles of the results received
  ServiceSamples service;
};

/// Loop totals: requests, items and cycles completed, and the window length.
struct LoopTotals {
  double requests = 0, items = 0, cycles = 0, seconds = 0;
};

LoopTotals totalsOf(const std::vector<LoopOut>& outs, const Window& window) {
  LoopTotals t;
  for (const LoopOut& o : outs) {
    t.requests += static_cast<double>(o.req_us.size());
    t.items += static_cast<double>(o.item_us.size());
    t.cycles += o.cycles;
  }
  t.seconds = secondsBetween(window.start(), Clock::now());
  return t;
}

}  // namespace

Report runLbdWarm(const Args& args) {
  Report report;
  noteLoad(report);
  const std::vector<service::Scenario> scenarios = warmScenarios(args.seed);
  std::vector<Json> scenario_json;
  for (const auto& s : scenarios) scenario_json.push_back(service::toJson(s));

  // References: in-process runScenario.  The traced run also rebuilds each
  // one through the traced path, which must agree and attributes the
  // simulation layers of this workload's set-up.
  lb::obs::FlightRecorder recorder(args.trace ? (1 << 18) : 0);
  recorder.setEnabled(args.trace);
  LayerTotals sim;
  double sim_wall_ns = 0;
  std::vector<service::ScenarioResult> refs;
  for (const auto& s : scenarios) refs.push_back(service::runScenario(s));
  if (args.trace) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < scenarios.size(); ++i)
      if (tracedRunScenario(scenarios[i], "warm-reference", sim, recorder,
                            lb::obs::mintTraceId()) != refs[i])
        report.fail("traced reference differs from runScenario");
    sim_wall_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }

  // Set-up, kWarmSetups times: start lbd, connect, and fill its cache with the
  // working set through the wire.  The last instance serves the window.
  std::unique_ptr<Lbd> lbd;
  std::vector<double> setups;
  Failures failures;
  for (int k = 0; k < kWarmSetups; ++k) {
    const auto t0 = Clock::now();
    lbd.reset();
    lbd = std::make_unique<Lbd>();
    onLoadThreads([&](std::size_t c) {
      for (std::size_t i = c; i < scenarios.size(); i += loadThreads()) {
        try {
          const std::string why =
              mismatch(lbd->clients[c]->run(scenario_json[i]), refs[i]);
          if (!why.empty()) failures.add("prewarm: " + why);
        } catch (const std::exception& e) {
          failures.add(std::string("prewarm: ") + e.what());
        }
      }
    });
    setups.push_back(secondsBetween(t0, Clock::now()));
  }

  // The mirror cache the traced replay reads, holding the same entries.
  service::ResultCache mirror(serverOptions().engine.cache_capacity);
  std::vector<std::uint64_t> hashes;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    hashes.push_back(service::scenarioHash(scenarios[i]));
    mirror.put(hashes[i], scenarios[i], refs[i]);
  }

  // The closed loop: each thread draws scenarios from its own seeded stream.
  const auto loop = [&](double seconds, bool traced,
                        std::vector<LoopOut>& outs) {
    outs.assign(loadThreads(), {});
    Window window(seconds);
    std::atomic<std::size_t> samples{0};
    onLoadThreads([&](std::size_t c) {
      LoopOut& out = outs[c];
      std::uint64_t rng = mix64(args.seed * 7919 + c + 1);
      while (window.open(samples.load(std::memory_order_relaxed))) {
        rng = mix64(rng);
        const std::size_t i = rng % scenarios.size();
        const auto t0 = Clock::now();
        Json response;
        try {
          response = lbd->clients[c]->run(scenario_json[i]);
        } catch (const std::exception& e) {
          failures.add(e.what());
          continue;
        }
        const auto t1 = Clock::now();
        const double rt_us = microsBetween(t0, t1);
        out.req_us.push_back(rt_us);
        out.cycles += static_cast<double>(scenarios[i].cycles);
        samples.fetch_add(1, std::memory_order_relaxed);
        const std::string why = mismatch(response, refs[i]);
        if (!why.empty()) failures.add(why);
        if (!traced) continue;

        // Replay the server's public calls for this request.
        const std::string line = requestLine("run", "scenario", scenario_json[i]);
        auto s0 = Clock::now();
        const Json parsed = Json::parse(line);
        const double parse_us = usSince(s0);
        s0 = Clock::now();
        const service::Scenario decoded =
            service::normalized(service::scenarioFromJson(parsed.at("scenario")));
        const std::uint64_t hash = service::scenarioHash(decoded);
        const double decode_us = usSince(s0);
        s0 = Clock::now();
        const auto hit = mirror.get(hash);
        const double get_us = usSince(s0);
        s0 = Clock::now();
        const std::string encoded = service::toJson(hit.value_or(refs[i])).dump();
        const double encode_us = usSince(s0);
        if (!hit || hash != hashes[i]) failures.add("replay: mirror cache miss");
        const double self_us = rt_us - parse_us - decode_us - get_us - encode_us;
        ServiceSamples& sv = out.service;
        sv.parse.push_back(parse_us);
        sv.decode.push_back(decode_us);
        sv.cache_get.push_back(get_us);
        sv.encode.push_back(encode_us);
        sv.execute.push_back(response.at("execute_micros").asDouble());
        sv.server_self.push_back(self_us);
        recordRequestSpans(recorder, "lbd.run", t0, rt_us,
                           {{"json.parse", parse_us},
                            {"scenario.decode", decode_us},
                            {"cache.get", get_us},
                            {"result.encode", encode_us},
                            {"server.self", self_us}});
      }
    });
    return totalsOf(outs, window);
  };

  std::vector<LoopOut> outs;
  if (!args.trace) {
    const LoopTotals t = loop(args.seconds, false, outs);
    const double req_per_s = rate(report, "requests", t.requests, t.seconds);
    std::vector<double> req_us;
    for (const LoopOut& o : outs)
      req_us.insert(req_us.end(), o.req_us.begin(), o.req_us.end());
    report.attempted = req_us.size();
    failures.into(report);
    report.notes.push_back("setup_s: median of " + std::to_string(kWarmSetups) +
                           " set-ups");
    addEndToEnd(report, median(setups), t.cycles / t.seconds / 1e6, req_per_s,
                req_per_s, req_us, req_us);
    lbd.reset();
    return report;
  }

  const LoopTotals untraced = loop(0.3 * args.seconds, false, outs);
  EngineDelta delta;
  delta.start(*lbd->server);
  const std::uint64_t retries_before = lbd->retries();
  const LoopTotals traced = loop(args.seconds, true, outs);
  ServiceSamples service;
  for (const LoopOut& o : outs) {
    service.merge(o.service);
    report.attempted += o.req_us.size();
  }
  delta.into(service, *lbd->server);
  service.retries = lbd->retries() - retries_before;
  failures.into(report);
  checkAttribution(report, sim, sim_wall_ns);
  addLayerMetrics(report, sim, service,
                  (untraced.requests / untraced.seconds) /
                          (traced.requests / traced.seconds) -
                      1);
  writeTrace(args, recorder, report);
  lbd.reset();
  return report;
}

// ---------------------------------------------------------------------------
// lbd_cold
// ---------------------------------------------------------------------------

namespace {

/// One streamed batch item kept for verification after the window: the
/// scenario's index (coldScenario regenerates it) and its result's digest.
struct Item {
  std::uint64_t index = 0;
  std::uint64_t digest = 0;
};

std::uint64_t digestOf(const service::ScenarioResult& r) {
  return fnv1a(service::toJson(r).dump());
}

/// Collects the frames of one batch request.
struct BatchFrames {
  Clock::time_point sent;
  std::vector<double> item_us = std::vector<double>(kBatchSize, -1);
  std::vector<Json> frames = std::vector<Json>(kBatchSize);
};

/// Sends one batch and returns its frames; failures are tallied.
bool sendBatch(service::Client& client, const std::vector<service::Scenario>& batch,
               BatchFrames& out, Failures& failures) {
  Json array = Json::array();
  for (const auto& s : batch) array.push(service::toJson(s));
  out.sent = Clock::now();
  Json done;
  try {
    done = client.batch(std::move(array), [&](const Json& frame) {
      const auto now = Clock::now();
      const std::uint64_t index = frame.at("batch").at("index").asUint64();
      if (index >= batch.size()) return;
      out.item_us[index] = microsBetween(out.sent, now);
      out.frames[index] = frame;
    });
  } catch (const std::exception& e) {
    failures.add(e.what());
    return false;
  }
  const Json* ok = done.find("ok");
  if (ok == nullptr || !ok->isBool() || !ok->asBool()) {
    failures.add("batch not ok: " + done.dump().substr(0, 200));
    return false;
  }
  for (std::size_t j = 0; j < batch.size(); ++j)
    if (out.item_us[j] < 0) {
      failures.add("batch item " + std::to_string(j) + " missing");
      return false;
    }
  return true;
}

}  // namespace

Report runLbdCold(const Args& args) {
  Report report;
  noteLoad(report);
  Failures failures;
  std::mutex items_mutex;
  std::vector<Item> items;  // every result, verified after the window
  const auto keep = [&](std::uint64_t first, const BatchFrames& frames) {
    std::vector<Item> kept;
    for (std::size_t j = 0; j < kBatchSize; ++j) {
      const Json& frame = frames.frames[j];
      const Json* ok = frame.find("ok");
      try {
        if (ok == nullptr || !ok->isBool() || !ok->asBool())
          throw std::runtime_error(frame.dump().substr(0, 200));
        kept.push_back({first + j, digestOf(service::resultFromJson(
                                       frame.at("result")))});
      } catch (const std::exception& e) {
        failures.add(std::string("batch item: ") + e.what());
      }
    }
    std::lock_guard<std::mutex> lock(items_mutex);
    items.insert(items.end(), kept.begin(), kept.end());
  };
  const auto batchAt = [&](std::uint64_t first) {
    std::vector<service::Scenario> batch;
    for (std::size_t j = 0; j < kBatchSize; ++j)
      batch.push_back(coldScenario(args.seed, first + j));
    return batch;
  };

  // Set-up, kColdSetups times: start lbd, connect, and run one warm-up batch of
  // never-seen scenarios per connection.
  std::unique_ptr<Lbd> lbd;
  std::vector<double> setups;
  for (int k = 0; k < kColdSetups; ++k) {
    const auto t0 = Clock::now();
    lbd.reset();
    lbd = std::make_unique<Lbd>();
    onLoadThreads([&](std::size_t c) {
      const std::uint64_t first =
          kWarmupIndexBase + (k * loadThreads() + c) * kBatchSize;
      BatchFrames frames;
      if (sendBatch(*lbd->clients[c], batchAt(first), frames, failures))
        keep(first, frames);
    });
    setups.push_back(secondsBetween(t0, Clock::now()));
  }

  lb::obs::FlightRecorder recorder(args.trace ? (1 << 18) : 0);
  recorder.setEnabled(args.trace);
  // The traced replay's mirror of the server's engine (same workers and
  // queue depth; it blocks instead of shedding).
  std::unique_ptr<service::JobEngine> mirror;
  if (args.trace) {
    service::JobEngineOptions o = serverOptions().engine;
    o.shed_when_full = false;
    mirror = std::make_unique<service::JobEngine>(o);
  }

  std::atomic<std::uint64_t> next_index{0};
  const auto loop = [&](double seconds, bool traced, std::vector<LoopOut>& outs) {
    outs.assign(loadThreads(), {});
    Window window(seconds);
    std::atomic<std::size_t> samples{0};
    onLoadThreads([&](std::size_t c) {
      LoopOut& out = outs[c];
      while (window.open(samples.load(std::memory_order_relaxed))) {
        const std::uint64_t first = next_index.fetch_add(kBatchSize);
        const auto batch = batchAt(first);
        BatchFrames frames;
        if (!sendBatch(*lbd->clients[c], batch, frames, failures)) continue;
        const auto t1 = Clock::now();
        const double rt_us = microsBetween(frames.sent, t1);
        out.req_us.push_back(rt_us);
        out.item_us.insert(out.item_us.end(), frames.item_us.begin(),
                           frames.item_us.end());
        for (const auto& s : batch) out.cycles += static_cast<double>(s.cycles);
        samples.fetch_add(1, std::memory_order_relaxed);
        keep(first, frames);
        if (!traced) continue;

        // Replay the server's public calls for this batch on the mirror.
        Json array = Json::array();
        for (const auto& s : batch) array.push(service::toJson(s));
        const std::string line = requestLine("batch", "scenarios", array);
        auto s0 = Clock::now();
        const Json parsed = Json::parse(line);
        const double parse_us = usSince(s0);
        std::vector<service::Scenario> decoded(kBatchSize);
        std::vector<std::uint64_t> hash(kBatchSize);
        std::vector<double> decode_us(kBatchSize), get_us(kBatchSize),
            run_us(kBatchSize), put_us(kBatchSize), encode_us(kBatchSize);
        for (std::size_t j = 0; j < kBatchSize; ++j) {
          s0 = Clock::now();
          decoded[j] = service::normalized(
              service::scenarioFromJson(parsed.at("scenarios").asArray()[j]));
          hash[j] = service::scenarioHash(decoded[j]);
          decode_us[j] = usSince(s0);
          s0 = Clock::now();
          if (mirror->cache().get(hash[j])) failures.add("replay: unexpected hit");
          get_us[j] = usSince(s0);
        }
        // Submit the whole batch at once, as the server's batch window does.
        std::mutex m;
        std::condition_variable cv;
        std::size_t pending = kBatchSize;
        std::vector<service::JobOutcome> outcome(kBatchSize);
        const auto submitted = Clock::now();
        for (std::size_t j = 0; j < kBatchSize; ++j)
          mirror->submitAsync(decoded[j], {}, [&, j](service::JobOutcome o) {
            const double us = usSince(submitted);
            std::lock_guard<std::mutex> lock(m);
            run_us[j] = us;
            outcome[j] = std::move(o);
            if (--pending == 0) cv.notify_one();
          });
        {
          std::unique_lock<std::mutex> lock(m);
          cv.wait(lock, [&] { return pending == 0; });
        }
        ServiceSamples& sv = out.service;
        sv.parse.push_back(parse_us);
        for (std::size_t j = 0; j < kBatchSize; ++j) {
          const service::ScenarioResult& r = outcome[j].result;
          if (outcome[j].status != service::JobStatus::kOk)
            failures.add("replay: " + outcome[j].error);
          s0 = Clock::now();
          mirror->cache().put(hash[j], decoded[j], r);
          put_us[j] = usSince(s0);
          s0 = Clock::now();
          const std::string encoded = service::toJson(r).dump();
          encode_us[j] = usSince(s0);
          const double queue_us =
              run_us[j] - outcome[j].execute_micros - get_us[j] - put_us[j];
          const double self_us = frames.item_us[j] - parse_us - decode_us[j] -
                                 get_us[j] - run_us[j] - put_us[j] -
                                 encode_us[j];
          sv.decode.push_back(decode_us[j]);
          sv.cache_get.push_back(get_us[j]);
          sv.cache_put.push_back(put_us[j]);
          sv.encode.push_back(encode_us[j]);
          sv.execute.push_back(frames.frames[j].at("execute_micros").asDouble());
          sv.queue_wait.push_back(queue_us);
          sv.server_self.push_back(self_us);
          recordRequestSpans(recorder, "lbd.batch_item", frames.sent,
                             frames.item_us[j],
                             {{"json.parse", parse_us},
                              {"scenario.decode", decode_us[j]},
                              {"cache.get", get_us[j]},
                              {"engine.queue_wait", queue_us},
                              {"engine.execute", outcome[j].execute_micros},
                              {"cache.put", put_us[j]},
                              {"result.encode", encode_us[j]},
                              {"server.self", self_us}});
        }
      }
    });
    return totalsOf(outs, window);
  };

  // Verification: every streamed result against in-process runScenario.
  const auto verify = [&] {
    std::vector<std::uint64_t> bad(loadThreads(), 0);
    onLoadThreads([&](std::size_t c) {
      for (std::size_t i = c; i < items.size(); i += loadThreads())
        if (digestOf(service::runScenario(
                coldScenario(args.seed, items[i].index))) != items[i].digest)
          ++bad[c];
    });
    for (const std::uint64_t n : bad)
      if (n > 0) failures.add("result differs from in-process runScenario", n);
    report.notes.push_back("verified " + std::to_string(items.size()) +
                           " results against in-process runScenario");
  };

  std::vector<LoopOut> outs;
  if (!args.trace) {
    const LoopTotals t = loop(args.seconds, false, outs);
    lbd.reset();
    verify();
    std::vector<double> req_us, item_us;
    for (const LoopOut& o : outs) {
      req_us.insert(req_us.end(), o.req_us.begin(), o.req_us.end());
      item_us.insert(item_us.end(), o.item_us.begin(), o.item_us.end());
    }
    report.attempted = item_us.size();
    failures.into(report);
    report.notes.push_back("setup_s: median of " + std::to_string(kColdSetups) +
                           " set-ups");
    addEndToEnd(report, median(setups), t.cycles / t.seconds / 1e6,
                rate(report, "items", t.items, t.seconds),
                rate(report, "batches", t.requests, t.seconds), req_us,
                item_us);
    return report;
  }

  const LoopTotals untraced = loop(0.3 * args.seconds, false, outs);
  EngineDelta delta;
  delta.start(*lbd->server);
  const std::uint64_t retries_before = lbd->retries();
  const LoopTotals traced = loop(args.seconds, true, outs);
  ServiceSamples service;
  for (const LoopOut& o : outs) {
    service.merge(o.service);
    report.attempted += o.item_us.size();
  }
  delta.into(service, *lbd->server);
  service.retries = lbd->retries() - retries_before;
  lbd.reset();
  mirror.reset();
  verify();
  // Attribute the simulation layers on one thread (concurrent threads would
  // disturb each other's sampled timings): the first kAttributed results
  // are rebuilt through the traced path, which must agree with them too.
  LayerTotals sim;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < std::min(kAttributed, items.size()); ++i)
    if (digestOf(tracedRunScenario(coldScenario(args.seed, items[i].index),
                                   "cold-reference", sim, recorder,
                                   lb::obs::mintTraceId())) != items[i].digest)
      failures.add("traced rebuild differs from the streamed result");
  const double sim_wall_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  failures.into(report);
  checkAttribution(report, sim, sim_wall_ns);
  addLayerMetrics(report, sim, service,
                  (untraced.items / untraced.seconds) /
                          (traced.items / traced.seconds) -
                      1);
  writeTrace(args, recorder, report);
  return report;
}

}  // namespace lbperf
