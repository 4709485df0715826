// owan_bench — end-to-end and per-layer benchmark of the Owan controller.
//
//   owan_bench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (every input is generated here from --seed; the program under
// test only ever sees the generated requests):
//   owan-isp40          Owan (paper defaults) in the batch simulator on the
//                       40-site ISP backbone, boolean-reach plant, update
//                       execution on under the nominal actuation model.
//   owan-isp40-qot      the same controller and loads on the ISP-40 plant
//                       with the QoT twin on (200G, 5000 km reach).
//   lp-baselines-isp40  MaxFlow, MaxMinFract and SWAN on the same plant and
//                       loads (fixed topology; the LP layer does the work).
//   service-internet2   ControllerService, online mode, OwanTe, over a
//                       seeded deadline stream on Internet2.
//
// A run repeats whole rounds of its workload (a round is a fixed set of
// simulations or one service run) until --seconds have passed and at least
// kMinRounds rounds are done; timings are medians over rounds, in CPU
// time (see CpuNow). Every TE
// decision goes through CheckedScheme, which times Compute and checks its
// output against inputs the benchmark generated. With --trace 0 the last
// stdout line carries the end-to-end metrics; with --trace 1 it carries
// the per-layer metrics of one untraced and one traced round plus replays
// of the recorded slot inputs through each layer's public functions.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/annealing.h"
#include "core/owan.h"
#include "core/provisioned_state.h"
#include "core/routing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/admission.h"
#include "service/service.h"
#include "sim/simulator.h"
#include "te/lp_baselines.h"
#include "topo/topologies.h"
#include "update/executor.h"
#include "update/scheduler.h"
#include "update/update_plan.h"
#include "util/stats.h"
#include "workload/stream.h"
#include "workload/workload.h"

using namespace owan;

namespace {

// Every timing is CPU time. The benchmark and the program under test run
// on one thread, so on an idle machine CPU time equals wall time; on a
// shared VM it leaves out the time the vCPU is descheduled (wall time ran
// 25% over CPU time in one 4 s round), which would swamp a 5-10% change.
double CpuNow(clockid_t clock = CLOCK_THREAD_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double SecondsSince(double t0) { return CpuNow() - t0; }

constexpr int kMinRounds = 3;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRateEps = 1e-6;  // Gbps
// Slots replayed per traced run through the core/optical/update layers,
// and through the LP schemes when they do not run in the loop. The LP
// replays take each run's first decision: later open-loop inputs carry a
// backlog on which one MaxMinFract solve can take tens of seconds.
constexpr size_t kLayerReplaySlots = 24;
constexpr size_t kTeReplaySlots = 4;

uint64_t Mix(uint64_t x) {  // SplitMix64
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Workload definitions.

enum class Kind { kOwanSim, kLpSim, kService };

struct Instance {
  uint64_t seed = 0;
  double horizon_s = 0.0;  // 0: run to completion
  std::vector<core::Request> requests;
};

struct Workload {
  Workload(std::string n, Kind k, topo::Wan w)
      : name(std::move(n)), kind(k), wan(std::move(w)) {}
  std::string name;
  Kind kind;
  topo::Wan wan;
  std::vector<Instance> instances;  // simulator workloads
  workload::StreamParams stream;    // service workload
  uint64_t stream_requests = 0;
  uint64_t owan_seed = 1;
};

// Owan as the paper runs it (§5.1): SJF, 300 annealing iterations, one
// chain, one thread.
core::OwanOptions PaperOwanOptions(uint64_t seed) {
  core::OwanOptions opt;
  opt.anneal.max_iterations = 300;
  opt.anneal.routing.policy.policy = core::SchedulingPolicy::kShortestJobFirst;
  opt.anneal.num_chains = 1;
  opt.anneal.num_threads = 1;
  opt.anneal.batch_size = 1;
  opt.seed = seed;
  return opt;
}

// Transfer sets follow the §5.1 model at the ISP figure benches' shape
// (exponential sizes around 5 TB), at loads 1.0 and 2.0, several seeds
// each. Two shapes, both sized so a round's work barely moves with --seed:
//  - Owan: open loop. Arrivals span the whole one-hour horizon and the
//    simulation stops there, so every simulation makes the same number of
//    decisions. (Run to completion, a closed batch can leave one transfer
//    starved for up to the 72 h cap, so its cost would swing 100x by seed.)
//  - LP baselines: closed batches arriving within 150 s and run to
//    completion. MaxMinFract finishes no transfer while arrivals continue,
//    so on the open-loop sets its LPs grow without bound (40-630 s per
//    simulation, measured).
struct InstanceShape {
  double arrival_window_s;
  double horizon_s;  // 0: run until every transfer completes
  int seeds_per_load;
};
constexpr InstanceShape kOwanShape{3600.0, 3600.0, 10};
constexpr InstanceShape kQotShape{3600.0, 3600.0, 5};
constexpr InstanceShape kLpShape{150.0, 0.0, 6};
constexpr double kIspMeanSizeGb = 40000.0;
// makespan_s is the batch makespan of the first slot's arrivals, taken at
// their 90th percentile: under Owan a starved transfer can outlast any
// horizon, which would pin the maximum to the horizon itself.
constexpr double kFirstSlotS = 300.0;
constexpr double kLoads[] = {1.0, 2.0};

std::vector<Instance> MakeIspInstances(const topo::Wan& wan, uint64_t seed,
                                       const InstanceShape& shape) {
  std::vector<Instance> out;
  for (int k = 0; k < shape.seeds_per_load; ++k) {
    const uint64_t s = Mix(seed * 1000003ULL + static_cast<uint64_t>(k));
    for (double load : kLoads) {
      workload::WorkloadParams wp;
      wp.duration_s = shape.arrival_window_s;
      wp.mean_size = kIspMeanSizeGb;
      wp.load_factor = load;
      wp.seed = s;
      out.push_back(
          Instance{s, shape.horizon_s, workload::GenerateWorkload(wan, wp)});
    }
  }
  return out;
}

// Internet2 deadline stream: ~0.5 arrivals/s of the C-Share size mix, every
// request with a deadline 1-8 slots out. The network drains it, so every
// admitted transfer completes.
constexpr double kStreamRate = 0.5;
constexpr uint64_t kStreamRequests = 40000;

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  // The ISP figure plant: 100G wavelengths, hard 2000 km reach.
  topo::WanParams isp;
  isp.wavelength_gbps = 100.0;
  // bench_ablation_optical's QoT plant: 200G, 5000 km reach, QoT twin on.
  topo::WanParams qot;
  qot.wavelength_gbps = 200.0;
  qot.reach_km = 5000.0;
  qot.qot.enabled = true;

  std::optional<Workload> w;
  if (name == "owan-isp40" || name == "lp-baselines-isp40") {
    w.emplace(name, name == "owan-isp40" ? Kind::kOwanSim : Kind::kLpSim,
              topo::MakeIspBackbone(7, 40, isp));
    w->instances = MakeIspInstances(
        w->wan, seed, name == "owan-isp40" ? kOwanShape : kLpShape);
  } else if (name == "owan-isp40-qot") {
    w.emplace(name, Kind::kOwanSim, topo::MakeIspBackbone(7, 40, qot));
    w->instances = MakeIspInstances(w->wan, seed, kQotShape);
  } else if (name == "service-internet2") {
    w.emplace(name, Kind::kService, topo::MakeInternet2());
    w->stream.seed = Mix(seed * 7919ULL + 1);
    w->stream.arrivals_per_s = kStreamRate;
    w->stream.slot_seconds = 300.0;
    w->stream_requests = kStreamRequests;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w->owan_seed = Mix(seed ^ 0x6f77616eULL);
  return std::move(*w);
}

// ---------------------------------------------------------------------------
// Recorded decisions and the checked, timed scheme wrapper.

struct Decision {
  int run = -1;  // which simulation / service run of the round
  core::Topology topology;  // input topology
  std::vector<core::TransferDemand> demands;
  double now = 0.0;
  double slot_seconds = 300.0;
  core::TeOutput output;
};

struct RoundLog {
  std::vector<double> decision_ms;
  std::map<std::string, std::vector<double>> scheme_ms;
  double compute_s = 0.0;
  // Time the benchmark's own checks and recording took inside the loop;
  // subtracted from the round's time.
  double check_s = 0.0;
  int64_t decisions = 0;
  int64_t failed = 0;
  int64_t adopted = 0;  // decisions whose topology differs from the input
  int64_t with_topology = 0;
  std::vector<std::string> errors;
  bool record = false;
  std::vector<Decision> recorded;
};

// Flags a check failure: keeps the first few messages for stderr.
void Flag(RoundLog& log, const std::string& what) {
  if (log.errors.size() < 20) log.errors.push_back(what);
}

double Throughput(const std::vector<core::TransferAllocation>& allocs) {
  double t = 0.0;
  for (const core::TransferAllocation& a : allocs) t += a.TotalRate();
  return t;
}

// Checks one decision against properties every TE output must have,
// recomputed here from the decision's input: allocations match demands,
// paths join their transfer's endpoints over links of the new topology,
// rates are non-negative and within each transfer's slot cap, per-link load
// fits the link's capacity, and port use fits the plant. Returns the
// number of violations.
int CheckDecision(const core::TeInput& in, const core::TeOutput& out,
                  RoundLog& log) {
  int bad = 0;
  auto fail = [&](const std::string& what) {
    ++bad;
    Flag(log, what);
  };
  const optical::OpticalNetwork& plant = *in.optical;
  const core::Topology& topo =
      out.new_topology ? *out.new_topology : *in.topology;
  if (out.allocations.size() != in.demands.size()) {
    fail("allocation count differs from demand count");
    return bad;
  }
  for (net::NodeId v = 0; v < topo.NumSites(); ++v) {
    if (topo.PortsUsed(v) > plant.UsablePorts(v)) {
      fail("site " + std::to_string(v) + " uses more ports than it has");
    }
  }
  std::map<std::pair<net::NodeId, net::NodeId>, double> load;
  for (size_t i = 0; i < in.demands.size(); ++i) {
    const core::TransferDemand& d = in.demands[i];
    const core::TransferAllocation& a = out.allocations[i];
    if (a.id != d.id) fail("allocation id mismatch at " + std::to_string(i));
    double total = 0.0;
    for (const core::PathAllocation& pa : a.paths) {
      if (!(pa.rate >= -kRateEps)) {
        fail("negative rate on transfer " + std::to_string(d.id));
      }
      if (pa.rate <= kRateEps) continue;
      total += pa.rate;
      const std::vector<net::NodeId>& nodes = pa.path.nodes;
      if (nodes.size() < 2 || nodes.front() != d.src || nodes.back() != d.dst) {
        fail("path of transfer " + std::to_string(d.id) +
             " does not join its endpoints");
        continue;
      }
      for (size_t k = 0; k + 1 < nodes.size(); ++k) {
        net::NodeId u = nodes[k];
        net::NodeId v = nodes[k + 1];
        if (topo.Units(u, v) <= 0) {
          fail("path of transfer " + std::to_string(d.id) +
               " uses a link absent from the new topology");
        }
        if (u > v) std::swap(u, v);
        load[{u, v}] += pa.rate;
      }
    }
    if (total > d.rate_cap * (1.0 + 1e-9) + kRateEps) {
      fail("transfer " + std::to_string(d.id) + " exceeds its slot cap");
    }
  }
  // Legacy plants grant theta per unit; under QoT the capacity is what the
  // modulation table grants the circuits realized from the blank plant.
  std::optional<core::ProvisionedState> realized;
  if (plant.qot().enabled) {
    realized.emplace(plant);
    realized->SyncTo(topo);
  }
  const double theta = plant.wavelength_capacity();
  for (const auto& [link, rate] : load) {
    const double cap =
        realized ? realized->RealizedCapacityGbps(link.first, link.second)
                 : topo.Units(link.first, link.second) * theta;
    if (rate > cap * (1.0 + 1e-9) + kRateEps) {
      fail("link " + std::to_string(link.first) + "-" +
           std::to_string(link.second) + " carries more than its capacity");
    }
  }
  return bad;
}

class CheckedScheme : public core::TeScheme {
 public:
  CheckedScheme(std::unique_ptr<core::TeScheme> inner, RoundLog* log, int run,
                bool compare_with_maxflow)
      : inner_(std::move(inner)), log_(log), run_(run) {
    if (compare_with_maxflow) maxflow_.emplace();
  }

  std::string name() const override { return inner_->name(); }
  bool Admit(const core::Request& r, double now) override {
    return inner_->Admit(r, now);
  }

  core::TeOutput Compute(const core::TeInput& in) override {
    const double t0 = CpuNow();
    core::TeOutput out = inner_->Compute(in);
    const double t1 = CpuNow();
    const double s = t1 - t0;
    log_->compute_s += s;
    log_->decision_ms.push_back(s * 1e3);
    log_->scheme_ms[inner_->name()].push_back(s * 1e3);
    ++log_->decisions;
    int bad = CheckDecision(in, out, *log_);
    if (out.new_topology) {
      ++log_->with_topology;
      if (!(*out.new_topology == *in.topology)) ++log_->adopted;
    }
    // MaxFlow maximizes total rate over the same k paths and capacities
    // every LP baseline uses, so no baseline may route more on one input.
    if (maxflow_) {
      const double best = Throughput(maxflow_->Compute(in).allocations);
      const double got = Throughput(out.allocations);
      if (got > best * (1.0 + 1e-6) + kRateEps) {
        ++bad;
        Flag(*log_, inner_->name() + " routes more than MaxFlow at t=" +
                        std::to_string(in.now));
      }
    }
    if (bad > 0) ++log_->failed;
    if (log_->record) {
      Decision d;
      d.run = run_;
      d.topology = *in.topology;
      d.demands = in.demands;
      d.now = in.now;
      d.slot_seconds = in.slot_seconds;
      d.output = out;
      log_->recorded.push_back(std::move(d));
    }
    log_->check_s += SecondsSince(t1);
    return out;
  }

 private:
  std::unique_ptr<core::TeScheme> inner_;
  RoundLog* log_;
  int run_;
  std::optional<te::MaxFlowTe> maxflow_;
};

// ---------------------------------------------------------------------------
// One round of a workload.

struct RoundResult {
  // Time inside RunSimulation / ControllerService::Run, minus the
  // benchmark's checks: the time the program took to drive the workload.
  double run_s = 0.0;
  RoundLog log;
  // Completion times of every transfer of the round's runs; a transfer
  // unfinished at the horizon counts as completing there.
  util::Summary completion_s;
  // Mean over the round's runs of the batch makespan (see kFirstSlotS).
  double makespan_s = 0.0;
  // Per-run completion times, for the admission replay.
  std::vector<std::vector<std::pair<core::Request, double>>> finished;
  // Service workload only.
  uint64_t service_slots = 0;
  uint64_t service_recomputes = 0;
};

std::unique_ptr<core::TeScheme> MakeLp(const std::string& name) {
  if (name == "MaxFlow") return std::make_unique<te::MaxFlowTe>();
  if (name == "MaxMinFract") return std::make_unique<te::MaxMinFractTe>();
  return std::make_unique<te::SwanTe>();
}

const char* kLpSchemes[] = {"MaxFlow", "MaxMinFract", "SWAN"};

// Checks a finished simulation against the requests the benchmark
// generated: no transfer is credited more than its size, a completed one
// delivered exactly its size, and without a horizon every one completes.
// Unfinished transfers count as completing at the horizon, the simulator's
// own convention.
void CheckSimResult(const Instance& inst, const sim::SimResult& r,
                    RoundLog& log, RoundResult& out) {
  const std::vector<core::Request>& reqs = inst.requests;
  if (r.transfers.size() != reqs.size()) {
    Flag(log, "simulation lost transfers");
    ++log.failed;
    return;
  }
  for (const std::string& v : r.invariant_violations) {
    Flag(log, "simulator invariant: " + v);
    ++log.failed;
  }
  std::vector<std::pair<core::Request, double>> done;
  util::Summary first_slot;  // completion instants of the first slot's arrivals
  for (size_t i = 0; i < reqs.size(); ++i) {
    const sim::TransferRecord& t = r.transfers[i];
    const core::Request& q = reqs[i];
    const double tol = 1e-6 * q.size + 1e-6;
    const bool ok =
        t.request == q && t.delivered <= q.size + tol &&
        (t.completed ? std::fabs(t.delivered - q.size) <= tol
                     : inst.horizon_s > 0.0 && t.completed_at == inst.horizon_s);
    if (!ok) {
      Flag(log, "transfer " + std::to_string(q.id) +
                    " delivered other than its generated size");
      ++log.failed;
      continue;
    }
    out.completion_s.Add(t.completed_at - q.arrival);
    if (q.arrival < kFirstSlotS) first_slot.Add(t.completed_at);
    if (t.completed) done.emplace_back(q, t.completed_at);
  }
  out.finished.push_back(std::move(done));
  out.makespan_s += first_slot.empty() ? 0.0 : first_slot.Percentile(90);
}

void RunSimRound(const Workload& w, RoundResult& out) {
  int run = 0;
  for (const Instance& inst : w.instances) {
    sim::SimOptions opt;
    opt.execute_updates = true;  // nominal actuation model (the default)
    if (inst.horizon_s > 0.0) opt.max_time_s = inst.horizon_s;
    std::vector<std::string> schemes;
    if (w.kind == Kind::kOwanSim) {
      schemes = {"Owan"};
    } else {
      schemes.assign(std::begin(kLpSchemes), std::end(kLpSchemes));
    }
    for (const std::string& s : schemes) {
      std::unique_ptr<core::TeScheme> inner;
      if (s == "Owan") {
        inner = std::make_unique<core::OwanTe>(
            PaperOwanOptions(Mix(w.owan_seed + inst.seed)));
      } else {
        inner = MakeLp(s);
      }
      CheckedScheme scheme(std::move(inner), &out.log, run,
                           w.kind == Kind::kLpSim && s != "MaxFlow");
      const double t0 = CpuNow();
      const sim::SimResult r =
          sim::RunSimulation(w.wan, inst.requests, scheme, opt);
      out.run_s += SecondsSince(t0);
      CheckSimResult(inst, r, out.log, out);
      ++run;
    }
  }
  out.makespan_s /= std::max(1, run);
}

// Service checks, computed apart from the service's bookkeeping: the
// request stream is regenerated from its parameters, and every request
// must be decided exactly once, every admitted one must complete with its
// generated size, and delivered volume must equal admitted volume.
void CheckService(const Workload& w, const service::ControllerService& svc,
                  RoundResult& out) {
  RoundLog& log = out.log;
  auto fail = [&](const std::string& what) {
    Flag(log, what);
    ++log.failed;
  };
  const service::ServiceStats& st = svc.stats();
  const sim::SimResult r = svc.ToSimResult();
  workload::ArrivalStream regen(w.wan.optical.NumSites(), w.stream);
  if (st.requests != w.stream_requests ||
      r.transfers.size() != w.stream_requests) {
    fail("service did not ingest every request exactly once");
    return;
  }
  if (st.admitted + st.rejected != st.requests || svc.pending_requests() != 0 ||
      svc.active_transfers() != 0) {
    fail("service left requests undecided or unfinished");
  }
  double admitted_gb = 0.0;
  uint64_t admitted = 0;
  std::vector<std::pair<core::Request, double>> done;
  for (const sim::TransferRecord& t : r.transfers) {
    const core::Request q = regen.Next();
    if (!(t.request == q)) {
      fail("service request " + std::to_string(t.request.id) +
           " differs from the regenerated stream");
      continue;
    }
    if (!t.admitted) continue;
    ++admitted;
    admitted_gb += q.size;
    if (!t.completed || std::fabs(t.delivered - q.size) > 1e-6 * q.size + 1e-6) {
      fail("admitted request " + std::to_string(q.id) +
           " did not complete with its generated size");
      continue;
    }
    out.completion_s.Add(t.completed_at - q.arrival);
    done.emplace_back(q, t.completed_at);
  }
  if (admitted != st.admitted) fail("admitted count disagrees with records");
  if (std::fabs(st.delivered_gigabits - admitted_gb) >
      1e-9 * admitted_gb + 1e-6) {
    fail("delivered volume differs from admitted volume");
  }
  for (const std::string& v : svc.admission().Audit()) {
    fail("admission audit: " + v);
  }
  out.finished.push_back(std::move(done));
}

void RunServiceRound(const Workload& w, RoundResult& out) {
  service::ServiceOptions opt;
  opt.mode = service::ServiceMode::kOnline;
  auto scheme = std::make_unique<CheckedScheme>(
      std::make_unique<core::OwanTe>(PaperOwanOptions(w.owan_seed)), &out.log,
      0, false);
  service::ControllerService svc(&w.wan, std::move(scheme), opt);
  svc.AttachStream(w.stream, w.stream_requests);
  const double t0 = CpuNow();
  svc.Run();
  out.run_s = SecondsSince(t0);
  out.service_slots = svc.stats().slots;
  out.service_recomputes = svc.stats().recomputes;
  out.makespan_s = svc.stats().makespan;
  CheckService(w, svc, out);
}

RoundResult RunRound(const Workload& w, bool record) {
  RoundResult out;
  out.log.record = record;
  if (w.kind == Kind::kService) {
    RunServiceRound(w, out);
  } else {
    RunSimRound(w, out);
  }
  out.run_s -= out.log.check_s;
  return out;
}

// ---------------------------------------------------------------------------
// Metric helpers and output.

double Median(std::vector<double> v) {
  util::Summary s;
  for (double x : v) s.Add(x);
  return s.empty() ? 0.0 : s.Median();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].value;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void ReportErrors(const RoundLog& log) {
  for (const std::string& e : log.errors) {
    std::fprintf(stderr, "owan_bench: check failed: %s\n", e.c_str());
  }
}

// ---------------------------------------------------------------------------
// Per-layer replays over recorded slot inputs.

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int64_t CounterValue(const obs::MetricsSnapshot& snap, const std::string& n) {
  for (const obs::CounterSnapshot& c : snap.counters) {
    if (c.name == n) return c.value;
  }
  return 0;
}

// Evenly spaced indices into [0, n), at most k of them.
std::vector<size_t> Sample(size_t n, size_t k) {
  std::vector<size_t> out;
  if (n == 0) return out;
  k = std::min(k, n);
  for (size_t i = 0; i < k; ++i) out.push_back(i * n / k);
  return out;
}

core::TeInput InputOf(const Decision& d, const topo::Wan& wan) {
  core::TeInput in;
  in.topology = &d.topology;
  in.optical = &wan.optical;
  in.demands = d.demands;
  in.slot_seconds = d.slot_seconds;
  in.now = d.now;
  return in;
}

// Returns each recorded decision's output in order — the service's
// passthrough loop then replays the simulator's slots without TE compute.
class ReplayScheme : public core::TeScheme {
 public:
  explicit ReplayScheme(std::vector<const Decision*> decisions)
      : decisions_(std::move(decisions)) {}
  std::string name() const override { return "Replay"; }
  core::TeOutput Compute(const core::TeInput& in) override {
    if (next_ < decisions_.size() &&
        decisions_[next_]->demands.size() == in.demands.size()) {
      return decisions_[next_++]->output;
    }
    core::TeOutput out;
    out.allocations.resize(in.demands.size());
    for (size_t i = 0; i < in.demands.size(); ++i) {
      out.allocations[i].id = in.demands[i].id;
    }
    return out;
  }

 private:
  std::vector<const Decision*> decisions_;
  size_t next_ = 0;
};

struct LayerMetrics {
  std::vector<Metric> m;
  void Add(const std::string& name, double v, const std::string& unit) {
    m.push_back(Metric{name, v, unit});
  }
};

void ReplayCoreAndBelow(const Workload& w, const std::vector<Decision>& recs,
                        LayerMetrics& out) {
  const core::OwanOptions opt = PaperOwanOptions(w.owan_seed);
  const core::RoutingOptions& ropt = opt.anneal.routing;
  const std::vector<size_t> picks = Sample(recs.size(), kLayerReplaySlots);
  double anneal_s = 0.0, route_s = 0.0, provision_s = 0.0, paths_s = 0.0;
  double plan_s = 0.0, exec_s = 0.0;
  int64_t candidates = 0, accepted = 0, pairs = 0, truncated = 0;
  int64_t unrealized = 0, ops = 0;
  for (size_t idx : picks) {
    const Decision& d = recs[idx];
    util::Rng rng(Mix(opt.seed + idx));
    double t0 = CpuNow();
    const core::AnnealResult ar = core::ComputeNetworkState(
        d.topology, w.wan.optical, d.demands, opt.anneal, rng);
    anneal_s += SecondsSince(t0);
    candidates += ar.iterations;
    accepted += ar.accepted;

    const core::Topology& chosen =
        d.output.new_topology ? *d.output.new_topology : d.topology;
    t0 = CpuNow();
    core::ProvisionedState st(w.wan.optical);
    unrealized += st.SyncTo(chosen);
    provision_s += SecondsSince(t0);
    const net::Graph g = st.CapacityGraph();

    std::set<std::pair<net::NodeId, net::NodeId>> seen;
    t0 = CpuNow();
    for (const core::TransferDemand& dm : d.demands) {
      if (dm.src == dm.dst || !seen.insert({dm.src, dm.dst}).second) continue;
      const core::PairPaths pp =
          core::EnumeratePairPaths(g, dm.src, dm.dst, ropt);
      ++pairs;
      if (pp.truncated) ++truncated;
    }
    paths_s += SecondsSince(t0);

    t0 = CpuNow();
    const core::RoutingOutcome ro =
        core::AssignRoutesAndRates(g, d.demands, ropt);
    route_s += SecondsSince(t0);
    (void)ro;

    // The update from the previous decision of the same run (or from the
    // plant's default topology with nothing installed) to this one.
    const bool has_prev = idx > 0 && recs[idx - 1].run == d.run;
    const core::Topology& from =
        has_prev ? (recs[idx - 1].output.new_topology
                        ? *recs[idx - 1].output.new_topology
                        : recs[idx - 1].topology)
                 : w.wan.default_topology;
    static const std::vector<core::TransferAllocation> kNone;
    const std::vector<core::TransferAllocation>& old_routes =
        has_prev ? recs[idx - 1].output.allocations : kNone;
    t0 = CpuNow();
    update::UpdatePlan plan = update::BuildUpdatePlan(
        from, chosen, old_routes, d.output.allocations);
    const update::Schedule sched = update::ScheduleConsistent(plan, 4);
    plan_s += SecondsSince(t0);
    (void)sched;
    ops += static_cast<int64_t>(plan.ops.size());
    update::ExecutorInput ein;
    ein.from = from;
    ein.plan = std::move(plan);
    ein.old_routes = old_routes;
    ein.new_routes = d.output.allocations;
    update::ExecutorOptions eopt;
    eopt.theta = w.wan.optical.wavelength_capacity();
    t0 = CpuNow();
    update::UpdateExecutor ex(std::move(ein), eopt);
    ex.StepUntil(std::numeric_limits<double>::infinity());
    const update::ExecResult res = ex.Finish();
    exec_s += SecondsSince(t0);
    (void)res;
  }
  const double n = static_cast<double>(std::max<size_t>(1, picks.size()));
  out.Add("core.anneal.candidates", candidates / n, "count");
  out.Add("core.anneal.us_per_candidate",
          1e6 * Ratio(anneal_s, static_cast<double>(candidates)), "us");
  out.Add("core.anneal.accept_ratio",
          Ratio(static_cast<double>(accepted), static_cast<double>(candidates)),
          "ratio");
  out.Add("core.paths.us_per_pair",
          1e6 * Ratio(paths_s, static_cast<double>(pairs)), "us");
  out.Add("core.paths.truncated_ratio",
          Ratio(static_cast<double>(truncated), static_cast<double>(pairs)),
          "ratio");
  out.Add("core.route_ms", 1e3 * route_s / n, "ms");
  out.Add("optical.provision_ms", 1e3 * provision_s / n, "ms");
  out.Add("optical.unrealized_units", static_cast<double>(unrealized), "count");
  out.Add("update.plan_ms", 1e3 * plan_s / n, "ms");
  out.Add("update.ops", static_cast<double>(ops) / n, "count");
  out.Add("update.exec_ms", 1e3 * exec_s / n, "ms");
}

// Median Compute latency of each LP baseline: from the loop when the
// workload runs them, else from replaying a few recorded slot inputs.
void TeLayer(const Workload& w, const RoundResult& traced, LayerMetrics& out) {
  const std::vector<Decision>& recs = traced.log.recorded;
  const char* keys[] = {"te.maxflow.compute_ms", "te.maxminfract.compute_ms",
                        "te.swan.compute_ms"};
  for (int i = 0; i < 3; ++i) {
    const std::string scheme = kLpSchemes[i];
    std::vector<double> ms;
    auto it = traced.log.scheme_ms.find(scheme);
    if (it != traced.log.scheme_ms.end()) {
      ms = it->second;
    } else {
      std::unique_ptr<core::TeScheme> te = MakeLp(scheme);
      std::vector<size_t> firsts;
      for (size_t idx = 0; idx < recs.size(); ++idx) {
        if (idx == 0 || recs[idx].run != recs[idx - 1].run) firsts.push_back(idx);
      }
      firsts.resize(std::min(firsts.size(), kTeReplaySlots));
      for (size_t idx : firsts) {
        const core::TeInput in = InputOf(recs[idx], w.wan);
        const double t0 = CpuNow();
        const core::TeOutput o = te->Compute(in);
        ms.push_back(1e3 * SecondsSince(t0));
        (void)o;
      }
    }
    out.Add(keys[i], Median(ms), "ms");
  }
}

// Admission replay: Offer at each arrival and Release at each recorded
// completion, in time order, against the WAN's default topology.
void AdmissionLayer(const Workload& w, const RoundResult& traced,
                    LayerMetrics& out) {
  struct Event {
    double t;
    bool offer;
    const core::Request* r;
  };
  double offer_s = 0.0;
  int64_t offers = 0, admitted = 0;
  for (const auto& run : traced.finished) {
    std::vector<Event> ev;
    for (const auto& [req, done_at] : run) {
      ev.push_back(Event{req.arrival, true, &req});
      ev.push_back(Event{done_at, false, &req});
    }
    std::stable_sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
      return a.t < b.t;
    });
    service::AdmissionController adm(
        w.wan.default_topology.ToGraph(w.wan.optical.wavelength_capacity()),
        service::AdmissionOptions{});
    for (const Event& e : ev) {
      if (e.offer) {
        const double t0 = CpuNow();
        const service::Admission a = adm.Offer(*e.r, e.t);
        offer_s += SecondsSince(t0);
        ++offers;
        if (a == service::Admission::kAdmitted) ++admitted;
      } else {
        adm.Release(e.r->id, e.t);
      }
    }
  }
  out.Add("service.admission.us_per_offer",
          1e6 * Ratio(offer_s, static_cast<double>(offers)), "us");
  out.Add("service.admission.accept_ratio",
          Ratio(static_cast<double>(admitted), static_cast<double>(offers)),
          "ratio");
}

// The service loop outside Compute. On the service workload it is read
// from the traced round; on simulator workloads the service's passthrough
// loop replays each recorded run's decisions over the same requests.
void ServiceLoopLayer(const Workload& w, const RoundResult& traced,
                      LayerMetrics& out) {
  if (w.kind == Kind::kService) {
    out.Add("service.loop_s", traced.run_s - traced.log.compute_s, "s");
    out.Add("service.recompute_ratio",
            Ratio(static_cast<double>(traced.service_recomputes),
                  static_cast<double>(traced.service_slots)),
            "ratio");
    return;
  }
  std::map<int, std::vector<const Decision*>> by_run;
  for (const Decision& d : traced.log.recorded) by_run[d.run].push_back(&d);
  double loop_s = 0.0;
  uint64_t slots = 0, recomputes = 0;
  int run = 0;
  for (const Instance& inst : w.instances) {
    const int per_instance = w.kind == Kind::kLpSim ? 3 : 1;
    for (int k = 0; k < per_instance; ++k, ++run) {
      service::ServiceOptions opt;
      opt.mode = service::ServiceMode::kPassthrough;
      if (inst.horizon_s > 0.0) opt.max_time_s = inst.horizon_s;
      service::ControllerService svc(
          &w.wan, std::make_unique<ReplayScheme>(by_run[run]), opt);
      for (const core::Request& r : inst.requests) svc.Submit(r);
      const double t0 = CpuNow();
      svc.Run();
      loop_s += SecondsSince(t0) - svc.stats().compute_seconds;
      slots += svc.stats().slots;
      recomputes += svc.stats().recomputes;
    }
  }
  out.Add("service.loop_s", loop_s, "s");
  out.Add("service.recompute_ratio",
          Ratio(static_cast<double>(recomputes), static_cast<double>(slots)),
          "ratio");
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_out";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace 0|1");
  return a;
}

int Main(const Args& args) {
  obs::SetMetricsEnabled(false);
  const Workload w = MakeWorkload(args.workload, args.seed);
  // Cold set-up from the process's start: the CPU clock of the process
  // starts at exec, so this includes loading and static initialization.
  const double setup_s = CpuNow(CLOCK_PROCESS_CPUTIME_ID);

  bool correct = true;
  int64_t attempted = 0, failed = 0;
  auto account = [&](const RoundResult& r) {
    attempted += r.log.decisions;
    failed += r.log.failed;
    if (!r.log.errors.empty()) correct = false;
    ReportErrors(r.log);
  };

  if (args.trace == 0) {
    std::vector<RoundResult> rounds;
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    while (static_cast<int>(rounds.size()) < kMinRounds ||
           elapsed() < args.seconds) {
      rounds.push_back(RunRound(w, false));
      account(rounds.back());
    }
    // Timings are the fastest round's. Other tenants of a shared machine
    // only ever slow a round down, and CPU throughput swung by 10% between
    // rounds of one run, so the fastest round is the steadiest estimate of
    // the program's own cost.
    double run_s = kInf, compute_s = kInf, p50 = kInf, p90 = kInf;
    for (const RoundResult& r : rounds) {
      util::Summary ms;
      for (double x : r.log.decision_ms) ms.Add(x);
      run_s = std::min(run_s, r.run_s);
      compute_s = std::min(compute_s, r.log.compute_s);
      p50 = std::min(p50, ms.Percentile(50));
      p90 = std::min(p90, ms.Percentile(90));
    }
    const RoundResult& first = rounds.front();
    std::printf("%s seed %llu: %zu rounds, %lld decisions per round\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                rounds.size(), static_cast<long long>(first.log.decisions));
    PrintResult(
        correct, attempted, failed,
        {{"setup_s", setup_s, "s"},
         {"run_s", run_s, "s"},
         {"te_compute_s", compute_s, "s"},
         {"decision_ms_p50", p50, "ms"},
         {"decision_ms_p90", p90, "ms"},
         {"peak_rss_mb", PeakRssMb(), "MB"},
         {"avg_completion_s", first.completion_s.Mean(), "s"},
         {"p95_completion_s", first.completion_s.Percentile(95), "s"},
         {"makespan_s", first.makespan_s, "s"}});
    return 0;
  }

  // Traced run: one round with the metrics registry and the span tracer
  // on, recording every slot input, between two untraced rounds; the
  // faster untraced round is the baseline (the first round of a process
  // runs cold).
  RoundResult plain = RunRound(w, false);
  account(plain);
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(true);
  obs::Tracer::Global().Start(1);
  const RoundResult traced = RunRound(w, true);
  obs::Tracer::Global().Stop();
  obs::SetMetricsEnabled(false);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  account(traced);
  RoundResult plain2 = RunRound(w, false);
  account(plain2);
  if (plain2.run_s < plain.run_s) plain = std::move(plain2);

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed);
  if (!obs::Tracer::Global().ExportChromeTrace(stem + ".trace.json")) {
    std::fprintf(stderr, "owan_bench: cannot write %s.trace.json\n",
                 stem.c_str());
  }
  obs::Tracer::Global().Clear();
  if (std::FILE* f = std::fopen((stem + ".metrics.json").c_str(), "w")) {
    std::fprintf(f, "%s\n", snap.ToJson().c_str());
    std::fclose(f);
  }

  LayerMetrics lm;
  ReplayCoreAndBelow(w, traced.log.recorded, lm);
  lm.Add("core.adopt_ratio",
         Ratio(static_cast<double>(traced.log.adopted),
               static_cast<double>(traced.log.with_topology)),
         "ratio");
  const double evals = static_cast<double>(CounterValue(snap, "energy.evaluations"));
  const double reused =
      static_cast<double>(CounterValue(snap, "energy.pairs_reused"));
  const double enumerated =
      static_cast<double>(CounterValue(snap, "energy.pairs_enumerated"));
  lm.Add("core.energy.memo_hit_ratio",
         Ratio(static_cast<double>(CounterValue(snap, "energy.memo_hits")),
               evals),
         "ratio");
  lm.Add("core.energy.pair_reuse_ratio", Ratio(reused, reused + enumerated),
         "ratio");
  lm.Add("core.energy.routing_runs",
         static_cast<double>(CounterValue(snap, "energy.routing_runs")),
         "count");
  TeLayer(w, traced, lm);
  lm.Add("sim.loop_s", plain.run_s - plain.log.compute_s, "s");
  ServiceLoopLayer(w, traced, lm);
  AdmissionLayer(w, traced, lm);
  lm.Add("trace.overhead_s", traced.run_s - plain.run_s, "s");
  std::printf("%s seed %llu: traced round %.3f s vs untraced %.3f s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              traced.run_s, plain.run_s);
  PrintResult(correct, attempted, failed, lm.m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "owan_bench: %s\n", e.what());
    return 2;
  }
}
