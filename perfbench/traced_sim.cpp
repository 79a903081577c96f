#include "traced_sim.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "bus/bus.hpp"
#include "common.hpp"
#include "noc/mesh.hpp"
#include "noc/nic.hpp"
#include "noc/router.hpp"
#include "scenarios.hpp"
#include "sim/kernel.hpp"
#include "traffic/classes.hpp"
#include "traffic/generator.hpp"
#include "traffic/testbed.hpp"

namespace lbperf {
namespace {

using lb::sim::Cycle;

constexpr std::uint64_t kSampleEvery = 16;  // power of two
/// The empty probe group is sampled more often: one small system's estimate
/// of the timer cost then rests on a few hundred samples.
constexpr std::uint64_t kProbeSampleEvery = 4;
/// A timed call longer than this was preempted or interrupted (no layer's
/// cycle or decision comes near it); it is dropped from the sample so one
/// descheduling does not inflate a layer's estimate.
constexpr double kOutlierNs = 50'000;

// Set while a component's sampled cycle() is being timed, so the arbiter
// decorators know to time the decisions nested inside it; the count of those
// nested timings lets the parent's interval shed their timer cost too.
thread_local bool t_sampling = false;
thread_local std::uint64_t t_nested = 0;

double nanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Passive timing wrapper around one layer's components (every source,
/// every NI, every router, or the bus), attached through the kernel's
/// type-erased attach(ICycleComponent&) edge in the members' place.  It calls
/// the members exactly as the kernel would have, in order, including the
/// early exit of the quiescence poll, so results stay bit-identical.  Timing
/// the whole layer per sampled cycle, not each member, keeps the timer's own
/// cost small next to what it measures.
class TimedGroup final : public lb::sim::ICycleComponent {
public:
  TimedGroup(LayerClock& clock, std::uint64_t stream,
             std::uint64_t every = kSampleEvery)
      : clock_(clock), mask_(every - 1), rng_(mix64(stream) | 1) {}

  void add(lb::sim::ICycleComponent& member) { members_.push_back(&member); }

  void cycle(Cycle now) override {
    ++clock_.calls;
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    // One loop for sampled and unsampled cycles alike: a separate, rarely
    // run loop would call the members from cold indirect-branch sites and
    // time a slower cycle than the ones it stands for.
    const bool sample = (rng_ & mask_) == 0;
    Clock::time_point start;
    if (sample) {
      t_sampling = true;
      t_nested = 0;
      start = Clock::now();
    }
    for (lb::sim::ICycleComponent* m : members_) m->cycle(now);
    if (!sample) return;
    const auto end = Clock::now();
    t_sampling = false;
    const double ns = nanosBetween(start, end);
    if (ns > kOutlierNs) return;
    ++clock_.sampled;
    clock_.nested += t_nested;
    clock_.sampled_ns += ns;
  }
  Cycle nextActivity(Cycle now) override {
    Cycle next = lb::sim::kNeverCycle;
    for (lb::sim::ICycleComponent* m : members_) {
      const Cycle hint = m->nextActivity(now);
      if (hint <= now) return now;  // the kernel stops polling here too
      next = std::min(next, hint);
    }
    return next;
  }
  void fastForward(Cycle from, Cycle to) override {
    for (lb::sim::ICycleComponent* m : members_) m->fastForward(from, to);
  }
  std::string name() const override { return "timed-group"; }

private:
  LayerClock& clock_;
  std::uint64_t mask_;
  std::uint64_t rng_;
  std::vector<lb::sim::ICycleComponent*> members_;
};

/// Passive IArbiter decorator: forwards arbitrate(), nextGrantOpportunity(),
/// shouldPreempt() and reset(); counts every decision into each clock and
/// times the ones made inside a sampled component cycle.
class TimedArbiter final : public lb::bus::IArbiter {
public:
  TimedArbiter(std::unique_ptr<lb::bus::IArbiter> inner,
               std::vector<LayerClock*> clocks)
      : inner_(std::move(inner)), clocks_(std::move(clocks)) {}

  Cycle nextGrantOpportunity(const lb::bus::RequestView& requests,
                             Cycle now) const override {
    return inner_->nextGrantOpportunity(requests, now);
  }
  std::string name() const override { return inner_->name(); }
  bool shouldPreempt(lb::bus::MasterId current,
                     const lb::bus::RequestView& requests,
                     Cycle now) override {
    return inner_->shouldPreempt(current, requests, now);
  }
  void reset() override { inner_->reset(); }

protected:
  lb::bus::Grant decide(const lb::bus::RequestView& requests,
                        Cycle now) override {
    for (LayerClock* clock : clocks_) ++clock->calls;
    // One call site for timed and untimed decisions (see TimedGroup).
    const bool timed = t_sampling;
    Clock::time_point start;
    if (timed) start = Clock::now();
    const lb::bus::Grant grant = inner_->arbitrate(requests, now);
    if (!timed) return grant;
    const auto end = Clock::now();
    ++t_nested;
    const double ns = nanosBetween(start, end);
    if (ns > kOutlierNs) return grant;
    for (LayerClock* clock : clocks_) {
      ++clock->sampled;
      clock->sampled_ns += ns;
    }
    return grant;
  }

private:
  std::unique_ptr<lb::bus::IArbiter> inner_;
  std::vector<LayerClock*> clocks_;
};

/// Removes the measured timer cost (the mean sampled time of an empty group)
/// from one system's timed calls: once per timed call, once per nested
/// timing.
void removeTimerCost(LayerTotals& t) {
  if (t.probe.sampled == 0) return;
  const double cost = t.probe.sampled_ns / static_cast<double>(t.probe.sampled);
  for (LayerClock* c : {&t.bus, &t.sources, &t.routers, &t.nis, &t.arbiter,
                        &t.lottery, &t.bus_arbiter, &t.port_arbiter})
    c->sampled_ns -= cost * static_cast<double>(c->sampled + c->nested);
}

std::vector<LayerClock*> arbiterClocks(LayerTotals& t, const std::string& kind,
                                       LayerClock& site) {
  std::vector<LayerClock*> clocks = {&t.arbiter, &site};
  if (kind == "lottery") clocks.push_back(&t.lottery);
  return clocks;
}

/// One span on the recorder's timeline.
std::uint64_t addSpan(lb::obs::FlightRecorder& recorder, std::uint64_t trace_id,
                      std::uint64_t parent, const std::string& name,
                      const std::string& note, double ts_us, double dur_us) {
  lb::obs::FlightRecorder::Span span;
  span.trace_id = trace_id;
  span.span_id = lb::obs::mintTraceId();
  span.parent_id = parent;
  span.name = name;
  span.note = note;
  span.ts_us = ts_us;
  span.dur_us = dur_us;
  span.tid = lb::obs::FlightRecorder::currentTid();
  recorder.record(span);
  return span.span_id;
}

/// Timestamps of one system's traced run.
struct Phases {
  Clock::time_point start, built, ran, collected;
};

/// Records the span tree of one system: the scenario root, build, kernel
/// (with the component layers laid end to end inside it, by estimated
/// duration), and collect.
void recordSpans(lb::obs::FlightRecorder& recorder, std::uint64_t trace_id,
                 const std::string& label, const Phases& p,
                 const LayerTotals& delta) {
  const double t0 = recorder.toMicros(p.start);
  const double t1 = recorder.toMicros(p.built);
  const double t2 = recorder.toMicros(p.ran);
  const double t3 = recorder.toMicros(p.collected);
  const std::uint64_t root =
      addSpan(recorder, trace_id, 0, "scenario", label, t0, t3 - t0);
  addSpan(recorder, trace_id, root, "sim.build", label, t0, t1 - t0);
  const std::uint64_t kernel =
      addSpan(recorder, trace_id, root, "sim.kernel", label, t1, t2 - t1);
  double at = t1;
  const auto layer = [&](const char* name, double ns, std::uint64_t parent,
                         double child_ns, const char* child) {
    if (ns <= 0) return;
    const std::uint64_t id =
        addSpan(recorder, trace_id, parent, name, "sampled estimate", at,
                ns / 1000);
    if (child_ns > 0)
      addSpan(recorder, trace_id, id, child, "sampled estimate", at,
              child_ns / 1000);
    at += ns / 1000;
  };
  layer("traffic.source", delta.sources.estimateNs(), kernel, 0, "");
  layer("bus.cycle", delta.bus.estimateNs(), kernel,
        delta.bus_arbiter.estimateNs(), "arbiter.decide");
  layer("noc.ni", delta.nis.estimateNs(), kernel, 0, "");
  layer("noc.router", delta.routers.estimateNs(), kernel,
        delta.port_arbiter.estimateNs(), "noc.port_arbiter");
  addSpan(recorder, trace_id, root, "result.collect", label, t2, t3 - t2);
}

void accountPhases(LayerTotals& t, const Phases& p) {
  t.build_ns += nanosBetween(p.start, p.built);
  t.kernel_ns += nanosBetween(p.built, p.ran);
  t.collect_ns += nanosBetween(p.ran, p.collected);
}

lb::sim::KernelMode modeOf(const service::Scenario& s) {
  return s.kernel_mode == "naive" ? lb::sim::KernelMode::kNaive
                                  : lb::sim::KernelMode::kFast;
}

service::ScenarioResult runBus(const service::Scenario& s,
                               const std::string& label, LayerTotals& t,
                               lb::obs::FlightRecorder& recorder,
                               std::uint64_t trace_id) {
  LayerTotals delta;
  Phases p;
  p.start = Clock::now();
  lb::bus::BusConfig config = lb::traffic::defaultBusConfig(s.masters);
  config.max_burst_words = s.burst;
  lb::bus::Bus bus(std::move(config),
                   std::make_unique<TimedArbiter>(
                       service::makeArbiter(s),
                       arbiterClocks(delta, s.arbiter, delta.bus_arbiter)));
  lb::sim::CycleKernel kernel;
  kernel.setMode(modeOf(s));
  const auto params = lb::traffic::paramsFor(
      lb::traffic::trafficClass(s.traffic_class), s.masters, s.seed);
  std::vector<std::unique_ptr<lb::traffic::TrafficSource>> sources;
  TimedGroup source_group(delta.sources, 1), probe(delta.probe, 2,
                                                   kProbeSampleEvery),
      bus_group(delta.bus, 3);
  for (std::size_t m = 0; m < s.masters; ++m) {
    sources.push_back(std::make_unique<lb::traffic::TrafficSource>(
        bus, static_cast<lb::bus::MasterId>(m), params[m]));
    source_group.add(*sources.back());
  }
  bus_group.add(bus);
  // TestbedInstance's order: every source, then the bus.
  for (TimedGroup* g : {&source_group, &probe, &bus_group})
    kernel.attach(static_cast<lb::sim::ICycleComponent&>(*g));
  p.built = Clock::now();

  kernel.run(s.cycles);
  p.ran = Clock::now();

  // The same summary TestbedInstance::finish produces.
  service::ScenarioResult r;
  r.cycles = s.cycles;
  r.grants = bus.grantsIssued();
  r.preemptions = bus.preemptions();
  r.unutilized_fraction = bus.bandwidth().unutilizedFraction();
  for (std::size_t m = 0; m < bus.numMasters(); ++m) {
    r.bandwidth_fraction.push_back(bus.bandwidth().fraction(m));
    r.traffic_share.push_back(bus.bandwidth().shareOfTraffic(m));
    r.cycles_per_word.push_back(bus.latency().cyclesPerWord(m));
    r.mean_message_latency.push_back(bus.latency().meanMessageLatency(m));
    r.messages_completed.push_back(bus.latency().messages(m));
  }
  p.collected = Clock::now();

  delta.systems = 1;
  delta.cycles = delta.bus_cycles = s.cycles;
  delta.skipped = kernel.cyclesSkipped();
  removeTimerCost(delta);
  accountPhases(delta, p);
  recordSpans(recorder, trace_id, label, p, delta);
  t.merge(delta);
  return r;
}

service::ScenarioResult runMesh(const service::Scenario& s,
                                const std::string& label, LayerTotals& t,
                                lb::obs::FlightRecorder& recorder,
                                std::uint64_t trace_id) {
  LayerTotals delta;
  Phases p;
  p.start = Clock::now();
  lb::noc::MeshConfig config;
  config.width = s.mesh.width;
  config.height = s.mesh.height;
  config.vc_count = s.mesh.vc_count;
  config.vc_depth = s.mesh.vc_depth;
  config.router_delay = s.mesh.router_delay;
  config.pattern = lb::noc::patternFromString(s.mesh.pattern);
  config.pattern_seed = s.seed;
  config.port_weights = s.weights;
  config.arbiter_factory =
      [inner = service::makeRouterArbiterFactory(s),
       clocks = arbiterClocks(delta, s.arbiter, delta.port_arbiter)](
          lb::noc::NodeId router, int port) {
        return std::unique_ptr<lb::bus::IArbiter>(
            std::make_unique<TimedArbiter>(inner(router, port), clocks));
      };
  lb::noc::MeshNetwork mesh(config);
  lb::sim::CycleKernel kernel;
  kernel.setMode(modeOf(s));
  const auto params = lb::traffic::paramsFor(
      lb::traffic::trafficClass(s.traffic_class), s.masters, s.seed);
  std::vector<std::unique_ptr<lb::traffic::TrafficSource>> sources;
  TimedGroup source_group(delta.sources, 1), probe(delta.probe, 2,
                                                   kProbeSampleEvery),
      ni_group(delta.nis, 3), router_group(delta.routers, 4);
  for (std::size_t n = 0; n < s.masters; ++n) {
    sources.push_back(std::make_unique<lb::traffic::TrafficSource>(
        mesh.ni(static_cast<lb::noc::NodeId>(n)),
        static_cast<lb::bus::MasterId>(n), params[n]));
    source_group.add(*sources.back());
  }
  // Sources first, then MeshNetwork::attachTo's order: every NI, then every
  // router.
  for (std::size_t n = 0; n < mesh.nodes(); ++n) {
    ni_group.add(mesh.ni(static_cast<lb::noc::NodeId>(n)));
    router_group.add(mesh.router(static_cast<lb::noc::NodeId>(n)));
  }
  for (TimedGroup* g : {&source_group, &probe, &ni_group, &router_group})
    kernel.attach(static_cast<lb::sim::ICycleComponent&>(*g));
  p.built = Clock::now();

  kernel.run(s.cycles);
  p.ran = Clock::now();

  // The same summary runScenario's mesh leg produces.
  const lb::noc::NocStats& stats = mesh.stats();
  std::uint64_t total_flits = 0;
  for (const auto& src : stats.sources) total_flits += src.flits_delivered;
  service::ScenarioResult r;
  r.cycles = s.cycles;
  r.grants = stats.grants;
  r.preemptions = 0;
  const auto cycles = static_cast<double>(s.cycles);
  r.unutilized_fraction =
      1.0 - static_cast<double>(total_flits) /
                (cycles * static_cast<double>(s.masters));
  for (const auto& src : stats.sources) {
    const auto flits = static_cast<double>(src.flits_delivered);
    const auto packets = static_cast<double>(src.packets_delivered);
    r.bandwidth_fraction.push_back(flits / cycles);
    r.traffic_share.push_back(
        total_flits > 0 ? flits / static_cast<double>(total_flits) : 0.0);
    r.cycles_per_word.push_back(
        src.flits_delivered > 0 ? src.latency_sum / flits : 0.0);
    r.mean_message_latency.push_back(
        src.packets_delivered > 0 ? src.latency_sum / packets : 0.0);
    r.messages_completed.push_back(src.packets_delivered);
  }
  p.collected = Clock::now();

  delta.systems = 1;
  delta.cycles = delta.mesh_cycles = s.cycles;
  delta.skipped = kernel.cyclesSkipped();
  delta.noc_grants = stats.grants;
  removeTimerCost(delta);
  accountPhases(delta, p);
  recordSpans(recorder, trace_id, label, p, delta);
  t.merge(delta);
  return r;
}

/// runScenario's replica aggregation: means of the per-master rates, sums
/// of the counters.
service::ScenarioResult aggregate(
    const std::vector<service::ScenarioResult>& runs) {
  service::ScenarioResult result = runs.front();
  const auto n = result.bandwidth_fraction.size();
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const service::ScenarioResult& run = runs[r];
    for (std::size_t m = 0; m < n; ++m) {
      result.bandwidth_fraction[m] += run.bandwidth_fraction[m];
      result.traffic_share[m] += run.traffic_share[m];
      result.cycles_per_word[m] += run.cycles_per_word[m];
      result.mean_message_latency[m] += run.mean_message_latency[m];
      result.messages_completed[m] += run.messages_completed[m];
    }
    result.unutilized_fraction += run.unutilized_fraction;
    result.grants += run.grants;
    result.preemptions += run.preemptions;
  }
  const auto count = static_cast<double>(runs.size());
  for (std::size_t m = 0; m < n; ++m) {
    result.bandwidth_fraction[m] /= count;
    result.traffic_share[m] /= count;
    result.cycles_per_word[m] /= count;
    result.mean_message_latency[m] /= count;
  }
  result.unutilized_fraction /= count;
  return result;
}

}  // namespace

void LayerTotals::merge(const LayerTotals& o) {
  systems += o.systems;
  cycles += o.cycles;
  bus_cycles += o.bus_cycles;
  mesh_cycles += o.mesh_cycles;
  skipped += o.skipped;
  noc_grants += o.noc_grants;
  build_ns += o.build_ns;
  kernel_ns += o.kernel_ns;
  collect_ns += o.collect_ns;
  bus.merge(o.bus);
  sources.merge(o.sources);
  routers.merge(o.routers);
  nis.merge(o.nis);
  arbiter.merge(o.arbiter);
  lottery.merge(o.lottery);
  bus_arbiter.merge(o.bus_arbiter);
  port_arbiter.merge(o.port_arbiter);
  probe.merge(o.probe);
}

double LayerTotals::kernelSelfNs() const {
  return kernel_ns - bus.estimateNs() - sources.estimateNs() -
         routers.estimateNs() - nis.estimateNs();
}

service::ScenarioResult tracedRunScenario(const service::Scenario& raw,
                                          const std::string& label,
                                          LayerTotals& totals,
                                          lb::obs::FlightRecorder& recorder,
                                          std::uint64_t trace_id) {
  const service::Scenario s = service::normalized(raw);
  const auto one = [&](const service::Scenario& replica,
                       const std::string& name) {
    return replica.mesh.enabled()
               ? runMesh(replica, name, totals, recorder, trace_id)
               : runBus(replica, name, totals, recorder, trace_id);
  };
  if (s.replicas <= 1) return one(s, label);
  // Replicas are independent systems, so running them one after another
  // gives the lockstep runner's results.
  std::vector<service::ScenarioResult> runs;
  for (std::uint32_t r = 0; r < s.replicas; ++r) {
    service::Scenario replica = s;
    replica.replicas = 1;
    replica.seed = service::replicaSeed(s.seed, r);
    runs.push_back(one(replica, label + "/replica" + std::to_string(r)));
  }
  return aggregate(runs);
}

}  // namespace lbperf
