// fleet_768: the §6.5 flow-level fleet (fig11) on the 768-GPU cluster.
//
// One round is one random-placement job stream (Poisson arrivals, 16/32-GPU
// ResNet-50 DDP jobs) simulated twice through workload::FlowSimJob: under
// RandomRing(gpu) with ECMP, then under locality rings with FFA routes
// recomputed by a full policy::assign_flows on every arrival and exit. The
// host time goes to netsim solves, route resolution and the event loop; the
// service datapath is not involved.

#include <algorithm>
#include <memory>
#include <set>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "netsim/network.h"
#include "netsim/routing.h"
#include "policy/flow_assign.h"
#include "report.h"
#include "routes.h"
#include "sim/event_loop.h"
#include "workload/flowsim.h"

namespace perfbench {
namespace {

using namespace mccs;

/// fig11 runs 50-job streams of 20 iterations; a stream's host cost
/// depends strongly on how its jobs overlap, so one run averages many
/// shorter streams instead (same arrival process, job mix and placement).
/// Five iterations keep a cycle of 16 streams near 9 s, so a run holds
/// several repetitions of each stream to take the quiet ones from (see
/// add_round_metrics).
struct FleetShape {
  int jobs = 25;
  int iterations = 5;
  int streams = 16;  ///< inputs per cycle
};

FleetShape shape_for(const RunConfig& cfg) {
  if (cfg.tiny) return FleetShape{6, 2, 1};
  return FleetShape{};
}

/// fig11: every job computes 90 ms per iteration.
constexpr Time kComputeGap = millis(90);

struct JobPlan {
  JobId id;
  std::vector<GpuId> gpus;
  Time start = 0.0;
};

/// fig11's job stream (bench/fig11_sim_cdf.cpp, random placement), all of it
/// drawn from `rng`: Poisson arrivals (mean gap 200 ms), 16- or 32-GPU jobs
/// equally likely, on whole random free hosts (8 GPUs each). A job that does
/// not fit waits for the earliest running job to end (nominal duration), so
/// both solutions see one stream.
std::vector<JobPlan> make_stream(const cluster::Cluster& cl, const FleetShape& shape, Rng& rng) {
  const Time nominal = shape.iterations * (kComputeGap + millis(40));
  struct Pending {
    int gpus;
    Time arrival;
  };
  std::vector<Pending> arrivals;
  Time t = 0.0;
  for (int j = 0; j < shape.jobs; ++j) {
    t += rng.exponential(0.2);
    arrivals.push_back({rng.uniform() < 0.5 ? 16 : 32, t});
  }
  std::vector<bool> used(cl.host_count(), false);
  struct Running {
    Time end;
    std::vector<std::uint32_t> hosts;
  };
  std::vector<Running> running;
  std::vector<JobPlan> plan;
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    const std::size_t hosts_needed = static_cast<std::size_t>(arrivals[j].gpus / 8);
    Time start = arrivals[j].arrival;
    std::vector<std::uint32_t> free_hosts;
    for (;;) {
      free_hosts.clear();
      for (std::uint32_t h = 0; h < cl.host_count(); ++h) {
        if (!used[h]) free_hosts.push_back(h);
      }
      if (free_hosts.size() >= hosts_needed) break;
      auto first = std::min_element(running.begin(), running.end(),
                                    [](const Running& a, const Running& b) {
                                      return a.end < b.end;
                                    });
      start = std::max(start, first->end);
      for (std::uint32_t h : first->hosts) used[h] = false;
      running.erase(first);
    }
    rng.shuffle(free_hosts);
    free_hosts.resize(hosts_needed);
    JobPlan jp;
    jp.id = JobId{static_cast<std::uint32_t>(j)};
    jp.start = start;
    for (std::uint32_t h : free_hosts) {
      used[h] = true;
      const auto& info = cl.host(HostId{h});
      jp.gpus.insert(jp.gpus.end(), info.gpus.begin(), info.gpus.end());
    }
    running.push_back({start + nominal, free_hosts});
    plan.push_back(std::move(jp));
  }
  return plan;
}

enum class Solution { kRandomGpuRing, kOptimalRingFfa };

struct SolutionResult {
  std::vector<double> avg_allreduce_s;  ///< per job
  std::vector<double> finish_s;         ///< per job, virtual
  std::vector<double> decision_s;       ///< host time per rebalance
  std::uint64_t events = 0;
  std::uint64_t solves = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t allocation_errors = 0;
  std::size_t peak_active_flows = 0;
  std::size_t unfinished = 0;
  std::set<std::pair<std::uint32_t, std::uint32_t>> nic_pairs;  ///< inter-host ring edges
};

struct Spans {
  std::uint32_t step, job_build, assign, check;
};

SolutionResult run_solution(const cluster::Cluster& cl, const std::vector<JobPlan>& plan,
                            const FleetShape& shape, Solution solution, std::uint64_t seed,
                            bool corrupt, Tracer& tracer, const Spans& sp) {
  sim::EventLoop loop;
  net::Network network(loop, cl.topology());
  net::Routing routing(cl.topology());
  Rng rng(seed);
  SolutionResult res;
  res.avg_allreduce_s.assign(plan.size(), 0.0);
  res.finish_s.assign(plan.size(), 0.0);

  std::vector<std::unique_ptr<workload::FlowSimJob>> jobs(plan.size());
  std::vector<bool> active(plan.size(), false);
  bool loop_cut = false;  // test hook: stop the simulation at the first job exit

  // A rebalance is fleet_768's decision: a full assign_flows over the live
  // jobs and the new routes installed.
  auto rebalance = [&] {
    if (solution != Solution::kOptimalRingFfa) return;
    const Clock::time_point d0 = Clock::now();
    {
      Scope span(tracer, sp.assign);
      std::vector<policy::AssignItem> items;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (!active[j]) continue;
        policy::AssignItem item;
        item.comm = CommId{static_cast<std::uint32_t>(j)};
        item.app = AppId{static_cast<std::uint32_t>(j)};
        item.gpus_by_rank = &jobs[j]->spec().gpus;
        item.strategy = &jobs[j]->strategy();
        items.push_back(item);
      }
      auto routes = policy::assign_flows(items, cl, routing);
      for (const policy::AssignItem& item : items) {
        jobs[item.comm.get()]->set_routes(std::move(routes[item.comm.get()]));
      }
    }
    res.decision_s.push_back(std::chrono::duration<double>(Clock::now() - d0).count());
  };

  for (std::size_t j = 0; j < plan.size(); ++j) {
    loop.schedule_at(plan[j].start, [&, j] {
      workload::SimJobSpec spec;
      spec.id = plan[j].id;
      spec.gpus = plan[j].gpus;
      spec.iterations = shape.iterations;
      spec.compute_gap = kComputeGap;
      spec.ring = solution == Solution::kRandomGpuRing ? workload::RingChoice::kRandomGpuOrder
                                                       : workload::RingChoice::kOptimal;
      {
        Scope span(tracer, sp.job_build);
        jobs[j] = std::make_unique<workload::FlowSimJob>(loop, network, cl, spec, rng);
      }
      active[j] = true;
      rebalance();
      jobs[j]->start([&, j](JobId, Time at) {
        if (corrupt) loop_cut = true;
        res.avg_allreduce_s[j] = jobs[j]->avg_allreduce_time();
        res.finish_s[j] = at;
        active[j] = false;
        rebalance();
      });
    });
  }
  if (tracer.enabled()) {
    while (!loop_cut) {
      Scope span(tracer, sp.step);
      if (!loop.step()) break;
      ++res.events;
      res.peak_active_flows = std::max(res.peak_active_flows, network.active_flow_count());
    }
  } else {
    while (!loop_cut && loop.step()) ++res.events;
  }

  Untimed check(tracer, sp.check);
  for (const auto& job : jobs) {
    if (job == nullptr || !job->finished()) {
      ++res.unfinished;
      continue;
    }
    const auto& gpus = job->spec().gpus;
    const int n = static_cast<int>(gpus.size());
    for (const auto& order : job->strategy().channel_orders) {
      for (int p = 0; p < n; ++p) {
        const GpuId a = gpus[static_cast<std::size_t>(order.rank_at(p))];
        const GpuId b = gpus[static_cast<std::size_t>(order.rank_at(p + 1))];
        if (cl.same_host(a, b)) continue;
        res.nic_pairs.insert({cl.nic_node_of_gpu(a).get(), cl.nic_node_of_gpu(b).get()});
      }
    }
  }
  res.solves = network.solves_total();
  res.batches = network.batches_total();
  res.coalesced = network.coalesced_flows_total();
  res.allocation_errors = network.allocation_error_count();
  return res;
}

/// One stream through both solutions, with its set-up and checks.
struct FleetRound {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<JobPlan> plan;
  SolutionResult base, ffa;
  std::unique_ptr<cluster::Cluster> cluster;
};

FleetRound run_round(const RunConfig& cfg, const FleetShape& shape, int input, Tracer& tracer,
                     const Spans& sp) {
  FleetRound r;
  // Set-up is repeated and its median kept: one build takes under a
  // millisecond, too short to time once.
  std::vector<double> setups;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point s0 = Clock::now();
    r.cluster = std::make_unique<cluster::Cluster>(cluster::make_large_sim_cluster());
    Rng plan_rng(derive_seed(cfg.seed, static_cast<std::uint64_t>(input)));
    r.plan = make_stream(*r.cluster, shape, plan_rng);
    setups.push_back(std::chrono::duration<double>(Clock::now() - s0).count());
  }
  r.setup_s = median(setups);

  const std::uint64_t ring_seed = derive_seed(cfg.seed, 1000 + static_cast<std::uint64_t>(input));
  const double untimed0 = tracer.untimed_s();
  const Clock::time_point w0 = Clock::now();
  r.base = run_solution(*r.cluster, r.plan, shape, Solution::kRandomGpuRing, ring_seed, false,
                        tracer, sp);
  r.ffa = run_solution(*r.cluster, r.plan, shape, Solution::kOptimalRingFfa, ring_seed,
                       cfg.corrupt, tracer, sp);
  r.wall_s = std::chrono::duration<double>(Clock::now() - w0).count() -
             (tracer.untimed_s() - untimed0);
  return r;
}

/// Virtual results of a round (identical whenever the inputs are).
std::vector<double> virtual_outputs(const FleetRound& r) {
  std::vector<double> v = r.base.avg_allreduce_s;
  v.insert(v.end(), r.ffa.avg_allreduce_s.begin(), r.ffa.avg_allreduce_s.end());
  v.insert(v.end(), r.ffa.finish_s.begin(), r.ffa.finish_s.end());
  return v;
}

}  // namespace

Outcome run_fleet_768(const RunConfig& cfg) {
  const FleetShape shape = shape_for(cfg);
  Tracer tracer(cfg.trace);
  const Spans sp{tracer.intern("sim.step"), tracer.intern("workload.job_build"),
                 tracer.intern("policy.assign"), tracer.intern("check")};
  Outcome out;

  // Virtual results and counts of cycle 0: identical in every run of a seed.
  std::vector<double> speedups, jct_s, busbw_gbps;
  double busy_gpu_s = 0.0, compute_gpu_s = 0.0;
  std::uint64_t events = 0, solves = 0, batches = 0, coalesced = 0, alloc_errors = 0;
  std::size_t peak_flows = 0;
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::vector<double>> decisions;  // by cycle
  double traced_wall = 0.0, input0_wall = 0.0;
  std::vector<double> input0_virtual;
  std::unique_ptr<cluster::Cluster> route_cluster;

  const RoundLog log = run_rounds(cfg.seconds, shape.streams, [&](int cycle, int input) {
    FleetRound r = run_round(cfg, shape, input, tracer, sp);
    Untimed check(tracer, sp.check);
    out.attempted += 2 * r.plan.size();
    out.failed += r.base.unfinished + r.ffa.unfinished;
    for (const SolutionResult* s : {&r.base, &r.ffa}) {
      if (s->unfinished != 0) out.fail("fleet_768: a job did not finish its iterations");
      if (s->allocation_errors != 0) out.fail("fleet_768: netsim allocation errors");
    }
    decisions.resize(static_cast<std::size_t>(cycle) + 1);
    decisions.back().insert(decisions.back().end(), r.ffa.decision_s.begin(),
                            r.ffa.decision_s.end());
    if (cfg.trace) traced_wall += r.wall_s;
    if (input == 0) input0_wall = r.wall_s;
    peak_flows = std::max({peak_flows, r.base.peak_active_flows, r.ffa.peak_active_flows});
    if (cycle == 0) {
      for (std::size_t j = 0; j < r.plan.size(); ++j) {
        if (r.ffa.avg_allreduce_s[j] <= 0.0) continue;
        speedups.push_back(r.base.avg_allreduce_s[j] / r.ffa.avg_allreduce_s[j]);
        jct_s.push_back(r.ffa.finish_s[j] - r.plan[j].start);
        const double n = static_cast<double>(r.plan[j].gpus.size());
        busbw_gbps.push_back(2.0 * (n - 1.0) / n * 100e6 * 8.0 / r.ffa.avg_allreduce_s[j] / 1e9);
        busy_gpu_s += n * (r.ffa.finish_s[j] - r.plan[j].start);
        compute_gpu_s += n * shape.iterations * kComputeGap;
      }
      events += r.base.events + r.ffa.events;
      solves += r.base.solves + r.ffa.solves;
      batches += r.base.batches + r.ffa.batches;
      coalesced += r.base.coalesced + r.ffa.coalesced;
      alloc_errors += r.base.allocation_errors + r.ffa.allocation_errors;
      if (input == 0) {
        input0_virtual = virtual_outputs(r);
        pairs = r.base.nic_pairs;
        pairs.insert(r.ffa.nic_pairs.begin(), r.ffa.nic_pairs.end());
        route_cluster = std::move(r.cluster);
      }
    }
    return RoundTimes{r.setup_s, r.wall_s};
  });

  if (!cfg.trace) {
    add_round_metrics(out, log);
    double mean_speedup = 0.0;
    for (double s : speedups) mean_speedup += s;
    out.add("ffa_speedup", speedups.empty() ? 0.0 : mean_speedup / speedups.size(),
            "mean over " + std::to_string(speedups.size()) + " jobs");
    // A fleet tenant's latency is its job's completion time. (Per-job
    // AllReduce times take a few repeating values, under either solution,
    // so their percentiles would not vary with the input.)
    add_p50_p99(out, "small_lat_us", jct_s, 1e6);
    double busbw = 0.0;
    for (double b : busbw_gbps) busbw += b;
    out.add("bulk_busbw_gbps", busbw_gbps.empty() ? 0.0 : busbw / busbw_gbps.size(),
            "mean over " + std::to_string(busbw_gbps.size()) + " jobs");
    add_p50_p99(out, "decision_us", quiet_samples(decisions), 1e6);
    out.add("goodput", busy_gpu_s > 0.0 ? compute_gpu_s / busy_gpu_s : 0.0,
            "OR+FFA jobs' compute share of their GPU-time");
    return out;
  }

  // Untraced reference run of input 0: tracing overhead, and the virtual
  // outputs must not depend on tracing.
  tracer.set_enabled(false);
  const FleetRound ref = run_round(cfg, shape, 0, tracer, sp);
  if (virtual_outputs(ref) != input0_virtual) {
    out.fail("fleet_768: virtual outputs differ between traced and untraced runs");
  }

  out.add("sim.events", static_cast<double>(events), "cycle 0, both solutions");
  const SpanStats& step = tracer.stats("sim.step");
  add_p50_p99(out, "sim.step_us", std::vector<double>(step.durations_us.begin(),
                                                       step.durations_us.end()));
  const double per_round = 1.0 / std::max(1, log.rounds);
  out.add("sim.step_self_s", step.self_s * per_round, "per round");
  out.add("netsim.solves", static_cast<double>(solves));
  out.add("netsim.batches", static_cast<double>(batches));
  out.add("netsim.coalesced_flows", static_cast<double>(coalesced));
  out.add("netsim.solves_per_event", events > 0 ? static_cast<double>(solves) / events : 0.0);
  out.add("netsim.peak_active_flows", static_cast<double>(peak_flows));
  out.add("netsim.allocation_errors", static_cast<double>(alloc_errors));
  const RouteTiming rt = time_routes(route_cluster->topology(), pairs);
  out.add("netsim.route_fill_us", rt.fill_us, std::to_string(pairs.size()) + " pairs");
  out.add("netsim.route_lookup_ns", rt.lookup_ns);
  const SpanStats& assign = tracer.stats("policy.assign");
  std::vector<double> assign_us(assign.durations_us.begin(), assign.durations_us.end());
  add_p50_p99(out, "policy.assign_us", assign_us);
  out.add("policy.assign_self_s", assign.self_s * per_round, "per round");
  // fleet_768's decisions are full one-shot assignments: the oracle itself.
  out.add("policy.full_assign_us_p50", median(assign_us));
  const SpanStats& build = tracer.stats("workload.job_build");
  out.add("workload.job_build_us_p50",
          median(std::vector<double>(build.durations_us.begin(), build.durations_us.end())));
  add_trace_metrics(out, tracer, traced_wall, input0_wall, ref.wall_s);
  add_bypassed(out, {"policy.ring", "policy.solve", "policy.closure", "policy.solves_per",
                     "cluster.", "mccs.", "collectives.", "gpusim."});
  if (!cfg.out_dir.empty()) tracer.write_json(cfg.out_dir + "/fleet_768.spans.json");
  return out;
}

}  // namespace perfbench
