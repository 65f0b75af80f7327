// control_churn: the controller's reaction time under tenant churn.
//
// A seeded Poisson tenant trace (cluster_day's 4k-GPU Clos mix: compact
// placement, 10% priority tenants with two reserved routes) plus a seeded
// share of fabric-link failures and repairs. Every event runs the same
// steps in order: cluster::AdmissionQueue admission / placement, a
// policy::locality_aware_strategy ring per admitted tenant, and the warm
// IncrementalAssigner update + solve. The decision time of an event is the
// host time of those steps. Netsim flows and the service datapath are not
// involved; the policy layer is used incrementally, unlike fleet_768's
// full one-shot assignments.

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "cluster/admission.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "netsim/routing.h"
#include "policy/flow_assign.h"
#include "policy/ring_config.h"
#include "report.h"
#include "routes.h"
#include "workload/arrivals.h"

namespace perfbench {
namespace {

using namespace mccs;

struct ChurnShape {
  Time horizon = 10000.0;
  double link_event_share = 0.05;  ///< link failures (+ repairs) per tenant event
  std::size_t check_every = 256;   ///< oracle comparison on every n-th event
  int inputs = 8;                  ///< rounds per cycle
};

ChurnShape shape_for(const RunConfig& cfg) {
  if (cfg.tiny) return ChurnShape{600.0, 0.05, 16, 1};
  return ChurnShape{};
}

const std::unordered_set<std::uint32_t> kReservedRoutes{0, 1};

cluster::SpineLeafSpec clos_4k() {
  cluster::SpineLeafSpec s;
  s.num_spines = 32;
  s.num_leaves = 32;
  s.hosts_per_leaf = 16;
  s.gpus_per_host = 8;
  s.nics_per_host = 8;
  s.nic_link = gbps(200);
  s.fabric_link = gbps(200);
  return s;
}

struct Event {
  Time at = 0.0;
  enum class Kind { kArrive, kDepart, kLinkDown, kLinkUp } kind = Kind::kArrive;
  std::uint32_t id = 0;  ///< job id or LinkId value
};

struct ChurnInput {
  std::vector<workload::JobSpec> jobs;
  std::vector<Event> events;
};

ChurnInput make_input(const cluster::Cluster& cl, const ChurnShape& shape, std::uint64_t seed) {
  workload::ChurnSpec spec;
  spec.mean_interarrival = 10.0;
  spec.mean_duration = 1200.0;
  spec.horizon = shape.horizon;
  spec.high_priority_fraction = 0.1;
  ChurnInput in;
  in.jobs = workload::poisson_jobs(spec, seed);
  for (const workload::ChurnEvent& e : workload::churn_events(in.jobs)) {
    in.events.push_back({e.at, e.arrival ? Event::Kind::kArrive : Event::Kind::kDepart,
                         e.job.get()});
  }
  // Fabric (leaf <-> spine) link failures at uniform times, each repaired
  // after an exponential outage.
  std::vector<std::uint32_t> fabric;
  const net::Topology& topo = cl.topology();
  for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
    const net::Link& link = topo.link(LinkId{l});
    if (topo.node(link.src).kind != net::NodeKind::kHost &&
        topo.node(link.dst).kind != net::NodeKind::kHost) {
      fabric.push_back(l);
    }
  }
  Rng rng(derive_seed(seed, 77));
  const auto failures = static_cast<std::size_t>(shape.link_event_share * in.events.size() / 2);
  for (std::size_t i = 0; i < failures; ++i) {
    const std::uint32_t link = fabric[rng.below(fabric.size())];
    const Time down = rng.uniform() * shape.horizon;
    in.events.push_back({down, Event::Kind::kLinkDown, link});
    in.events.push_back({down + rng.exponential(300.0), Event::Kind::kLinkUp, link});
  }
  std::stable_sort(in.events.begin(), in.events.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  return in;
}

struct Spans {
  std::uint32_t event, admit, ring, update, solve, check;
};

struct LiveJob {
  std::vector<GpuId> gpus;
  svc::CommStrategy strategy;
  bool high_priority = false;
  Time admitted_at = 0.0;
};

struct ChurnRound {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t checked = 0;
  std::vector<std::string> errors;
  std::vector<double> decision_s;
  std::vector<double> full_assign_s;  ///< oracle timings (checks)
  double goodput = 0.0;  ///< admitted share of the demanded GPU-time
  std::vector<double> hold_s;  ///< per admitted tenant: admission to departure (virtual)
  double closure_items = 0.0;  ///< summed over solves that re-solved items
  std::uint64_t solves = 0;    ///< solves that re-solved something
  std::size_t queue_peak = 0;
  std::uint64_t audits = 0;
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::uint64_t digest = policy::kFnvOffset;  ///< of every checked assignment
};

/// Replay one input. `audit_period` > 0 also turns on the assigner's own
/// sampled audit (inside solve, so only in the verification replay).
ChurnRound run_round(const ChurnShape& shape, std::uint64_t input_seed, Tracer& tracer,
                     const Spans& sp, std::uint32_t audit_period, bool corrupt = false) {
  ChurnRound res;
  const Clock::time_point s0 = Clock::now();
  const cluster::Cluster cl = cluster::make_spine_leaf(clos_4k());
  const net::Routing routing(cl.topology());
  cluster::AdmissionQueue admission(cl, cluster::Placement::kCompact);
  policy::IncrementalAssigner assigner(cl, routing);
  assigner.set_reserved_routes(kReservedRoutes);
  if (audit_period > 0) assigner.set_audit({audit_period, input_seed});
  const ChurnInput in = make_input(cl, shape, input_seed);
  Rng rng(derive_seed(input_seed, 5));
  res.setup_s = std::chrono::duration<double>(Clock::now() - s0).count();

  std::map<std::uint32_t, LiveJob> live;
  std::unordered_set<std::uint32_t> failed;
  double busy_gpu_s = 0.0;
  auto item_of = [](std::uint32_t id, const LiveJob& lj) {
    policy::AssignItem item;
    item.comm = CommId{id};
    item.app = AppId{id};
    item.gpus_by_rank = &lj.gpus;
    item.strategy = &lj.strategy;
    item.high_priority = lj.high_priority;
    return item;
  };

  const double untimed0 = tracer.untimed_s();
  const Clock::time_point w0 = Clock::now();
  for (const Event& ev : in.events) {
    const Clock::time_point d0 = Clock::now();
    {
      Scope event_span(tracer, sp.event);
      std::vector<std::pair<std::uint32_t, std::vector<GpuId>>> started;
      bool stopped = false;
      if (ev.kind == Event::Kind::kArrive || ev.kind == Event::Kind::kDepart) {
        Scope span(tracer, sp.admit);
        if (ev.kind == Event::Kind::kArrive) {
          if (auto placed = admission.submit(JobId{ev.id}, in.jobs[ev.id].gpus, rng)) {
            started.emplace_back(ev.id, std::move(*placed));
          }
        } else {
          stopped = live.count(ev.id) > 0;
          for (auto& adm : admission.finish(JobId{ev.id}, rng)) {
            started.emplace_back(adm.job.get(), std::move(adm.gpus));
          }
        }
      }
      for (auto& [id, gpus] : started) {
        Scope span(tracer, sp.ring);
        LiveJob lj;
        lj.strategy = policy::locality_aware_strategy(gpus, cl);
        lj.gpus = std::move(gpus);
        lj.high_priority = in.jobs[id].high_priority;
        lj.admitted_at = ev.at;
        live.emplace(id, std::move(lj));
      }
      {
        Scope span(tracer, sp.update);
        if (stopped) {
          assigner.remove_item(CommId{ev.id});
          const LiveJob& lj = live.at(ev.id);
          busy_gpu_s += static_cast<double>(lj.gpus.size()) * (ev.at - lj.admitted_at);
          res.hold_s.push_back(ev.at - lj.admitted_at);
          live.erase(ev.id);
        }
        for (const auto& entry : started) assigner.add_item(item_of(entry.first, live.at(entry.first)));
        if (ev.kind == Event::Kind::kLinkDown || ev.kind == Event::Kind::kLinkUp) {
          if (ev.kind == Event::Kind::kLinkDown) {
            failed.insert(ev.id);
          } else {
            failed.erase(ev.id);
          }
          assigner.set_failed_links(failed);
        }
      }
      Scope span(tracer, sp.solve);
      const policy::IncrementalSolveStats st = assigner.solve(ev.at);
      if (st.solved_items > 0) {
        ++res.solves;
        res.closure_items += static_cast<double>(st.solved_items);
      }
    }
    res.decision_s.push_back(std::chrono::duration<double>(Clock::now() - d0).count());
    ++res.events;
    res.queue_peak = std::max(res.queue_peak, admission.queue_depth());

    if (res.events % shape.check_every != 0 && res.events != in.events.size()) continue;
    // Sampled oracle check, outside the timed decisions: the warm assignment
    // must equal a from-scratch assign_flows over the live tenants.
    Untimed check(tracer, sp.check);
    ++res.checked;
    std::vector<policy::AssignItem> items;
    for (const auto& [id, lj] : live) items.push_back(item_of(id, lj));
    policy::AssignOptions options;
    options.reserved_routes = kReservedRoutes;
    options.failed_links = failed;
    const Clock::time_point f0 = Clock::now();
    auto full = policy::assign_flows(items, cl, routing, options);
    res.full_assign_s.push_back(std::chrono::duration<double>(Clock::now() - f0).count());
    auto warm = assigner.assignments();
    std::erase_if(warm, [](const auto& kv) { return kv.second.empty(); });
    std::uint64_t digest = policy::assignment_digest(warm);
    if (corrupt && res.checked == 1) digest ^= 1;
    if (digest != policy::assignment_digest(full)) {
      res.errors.push_back("control_churn: incremental assignment differs from assign_flows");
    }
    policy::fold_digest(res.digest, digest);
    for (const policy::AssignItem& item : items) {
      for (const policy::PendingFlow& f : policy::enumerate_flows(item, cl)) {
        res.pairs.insert({f.src.get(), f.dst.get()});
      }
    }
  }
  res.wall_s = std::chrono::duration<double>(Clock::now() - w0).count() -
               (tracer.untimed_s() - untimed0);

  const Time end = in.events.empty() ? 1.0 : in.events.back().at;
  for (const auto& [id, lj] : live) {
    busy_gpu_s += static_cast<double>(lj.gpus.size()) * (end - lj.admitted_at);
    res.hold_s.push_back(end - lj.admitted_at);
  }
  double demanded_gpu_s = 0.0;
  for (const workload::JobSpec& job : in.jobs) {
    demanded_gpu_s += static_cast<double>(job.gpus) * (job.depart - job.arrive);
  }
  res.goodput = demanded_gpu_s > 0.0 ? busy_gpu_s / demanded_gpu_s : 0.0;
  res.audits = assigner.audit_runs();
  if (assigner.audit_mismatches() != 0 || assigner.fallbacks() != 0) {
    res.errors.push_back("control_churn: assigner audit found a mismatch");
  }
  return res;
}

}  // namespace

Outcome run_control_churn(const RunConfig& cfg) {
  const ChurnShape shape = shape_for(cfg);
  Tracer tracer(cfg.trace);
  const Spans sp{tracer.intern("event"),        tracer.intern("cluster.admit"),
                 tracer.intern("policy.ring"),  tracer.intern("policy.update"),
                 tracer.intern("policy.solve"), tracer.intern("check")};
  Outcome out;
  auto absorb = [&out](const ChurnRound& r) {
    out.attempted += r.events;
    out.failed += r.errors.size();
    for (const std::string& e : r.errors) out.fail(e);
  };

  std::vector<std::vector<double>> decisions;  // by cycle
  std::vector<double> full_assign, hold_s;
  double goodput_sum = 0.0, closure = 0.0;
  std::uint64_t events = 0, solves = 0;
  std::size_t queue_peak = 0;
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  double traced_wall = 0.0, input0_wall = 0.0;
  std::uint64_t input0_digest = 0;
  int inputs_done = 0;

  const RoundLog log = run_rounds(cfg.seconds, shape.inputs, [&](int cycle, int input) {
    const std::uint64_t input_seed = derive_seed(cfg.seed, static_cast<std::uint64_t>(input));
    ChurnRound r = run_round(shape, input_seed, tracer, sp, 0, cfg.corrupt);
    absorb(r);
    decisions.resize(static_cast<std::size_t>(cycle) + 1);
    decisions.back().insert(decisions.back().end(), r.decision_s.begin(), r.decision_s.end());
    full_assign.insert(full_assign.end(), r.full_assign_s.begin(), r.full_assign_s.end());
    if (cfg.trace) traced_wall += r.wall_s;
    if (input == 0) input0_wall = r.wall_s;
    if (cycle == 0) {
      ++inputs_done;
      goodput_sum += r.goodput;
      hold_s.insert(hold_s.end(), r.hold_s.begin(), r.hold_s.end());
      events += r.events;
      solves += r.solves;
      closure += r.closure_items;
      queue_peak = std::max(queue_peak, r.queue_peak);
      if (input == 0) {
        input0_digest = r.digest;
        pairs = r.pairs;
      }
    }
    return RoundTimes{r.setup_s, r.wall_s};
  });

  // Verification replay of input 0 with the assigner's own audit on (it runs
  // inside solve, so never in a timed replay). Its checked assignments must
  // match the timed (in a traced run: traced) replay's exactly.
  tracer.set_enabled(false);
  const ChurnRound audited = run_round(shape, derive_seed(cfg.seed, 0), tracer, sp, 16);
  absorb(audited);
  if (audited.audits == 0) out.fail("control_churn: the assigner audit never ran");
  if (audited.digest != input0_digest) {
    out.fail("control_churn: replays of one input assigned routes differently");
  }

  if (!cfg.trace) {
    add_round_metrics(out, log);
    // No collectives run here, but every run reports every end-to-end metric
    // BENCHMARK.json lists. A constant never spreads, so it leaves these
    // metrics' bounds to the workloads that measure them. (Not for a time: a
    // time that reads the same on every run is not a measurement.)
    for (const char* name : {"ffa_speedup", "bulk_busbw_gbps"}) {
      out.add(name, 1.0, "constant: no collectives in this workload");
    }
    // No tenant issues collectives here either; the nearest virtual quantity
    // is how long an admitted tenant holds its GPUs.
    add_p50_p99(out, "small_lat_us", hold_s, 1e6);
    add_p50_p99(out, "decision_us", quiet_samples(decisions), 1e6);
    out.add("goodput", inputs_done > 0 ? goodput_sum / inputs_done : 0.0,
            "admitted share of the demanded GPU-time, mean of " +
                std::to_string(inputs_done) + " traces");
    return out;
  }

  const SpanStats& admit = tracer.stats("cluster.admit");
  add_p50_p99(out, "cluster.admit_us", std::vector<double>(admit.durations_us.begin(),
                                                           admit.durations_us.end()));
  out.add("cluster.queue_depth_peak", static_cast<double>(queue_peak));
  const SpanStats& ring = tracer.stats("policy.ring");
  out.add("policy.ring_us_p50",
          median(std::vector<double>(ring.durations_us.begin(), ring.durations_us.end())),
          "n=" + std::to_string(ring.count));
  const SpanStats& solve = tracer.stats("policy.solve");
  add_p50_p99(out, "policy.solve_us", std::vector<double>(solve.durations_us.begin(),
                                                          solve.durations_us.end()));
  out.add("policy.closure_items_mean", solves > 0 ? closure / solves : 0.0,
          "over solves that re-solved items");
  out.add("policy.solves_per_event", events > 0 ? static_cast<double>(solves) / events : 0.0);
  out.add("policy.full_assign_us_p50", median(full_assign) * 1e6,
          "oracle, n=" + std::to_string(full_assign.size()));
  const RouteTiming rt = time_routes(cluster::make_spine_leaf(clos_4k()).topology(), pairs);
  out.add("netsim.route_fill_us", rt.fill_us, std::to_string(pairs.size()) + " pairs");
  out.add("netsim.route_lookup_ns", rt.lookup_ns);
  // Untraced replays of input 0 for the tracing overhead.
  std::vector<double> untraced;
  for (int rep = 0; rep < 3; ++rep) {
    const ChurnRound plain = run_round(shape, derive_seed(cfg.seed, 0), tracer, sp, 0);
    absorb(plain);
    untraced.push_back(plain.wall_s);
  }
  add_trace_metrics(out, tracer, traced_wall, input0_wall, median(untraced));
  add_bypassed(out, {"sim.", "netsim.", "policy.assign", "workload.", "mccs.", "collectives.",
                     "gpusim."});
  if (!cfg.out_dir.empty()) tracer.write_json(cfg.out_dir + "/control_churn.spans.json");
  return out;
}

}  // namespace perfbench
