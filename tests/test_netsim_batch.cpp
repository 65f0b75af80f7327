// Batched-mutation epoch (solve coalescing) tests.
//
// The contract under test (DESIGN.md §15): a Network with coalescing on
// produces a simulation bitwise identical to the per-mutation solve path —
// every flow completes at the bit-identical virtual instant and the link
// change-log is entry-for-entry equal. The one permitted difference is the
// ORDER of completions within a single instant (per-flow cascades re-insert
// same-instant events in solve-history order; a coalesced solve emits them
// in ascending flow id), so streams are compared per flow id and after a
// canonical (time bits, id) sort, never positionally.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "netsim/network.h"
#include "policy/flow_assign.h"
#include "sim/event_loop.h"
#include "telemetry/telemetry.h"
#include "workload/flowsim.h"

namespace mccs::net {
namespace {

std::uint64_t time_bits(Time t) {
  std::uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(t));
  std::memcpy(&b, &t, sizeof(b));
  return b;
}

// --- seeded batched-vs-unbatched sweep --------------------------------------

/// A churn plan exercising everything a batch can coalesce: same-instant
/// start bursts (some flows latent, some sharing a bit-identical activation
/// instant), pause/resume pulses, cancels (including cancel of a flow
/// started in the same batch), and same-instant link-fault epochs.
struct BatchPlan {
  struct Start {
    Time at;
    NodeId src, dst;
    Bytes size;
    std::uint64_t ecmp_key;
    Time latency;
    Bandwidth cap;
    double weight;
    int burst;  ///< starts sharing a burst share one SolveBatch
  };
  struct Pulse {
    int target;
    Time pause_at, resume_at;
  };
  struct Cancel {
    int target;
    Time at;
  };
  struct FaultEpoch {
    Time at;
    std::vector<std::pair<std::uint32_t, bool>> links;  ///< (link, down?)
    Time clear_at;
  };
  std::vector<std::pair<NodeId, NodeId>> background;
  std::vector<Start> starts;
  std::vector<Pulse> pulses;
  std::vector<Cancel> cancels;
  std::vector<FaultEpoch> faults;
};

BatchPlan make_batch_plan(const std::vector<NodeId>& hosts,
                          std::size_t link_count, Rng& rng) {
  BatchPlan plan;
  auto pick_pair = [&] {
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = hosts[rng.below(hosts.size())];
    if (dst == src) dst = hosts[(dst.get() + 1) % hosts.size()];
    return std::pair{src, dst};
  };
  for (int b = 0; b < 2; ++b) plan.background.push_back(pick_pair());

  // 6 bursts of 2-5 flows, each burst at one instant. Within a burst, pairs
  // of latent flows share one latency value, so their activation instants
  // (burst time + latency) collide bit-for-bit — the activation-cohort path.
  int burst = 0;
  for (int b = 0; b < 6; ++b, ++burst) {
    const Time at = rng.uniform() * 0.04;
    const int width = 2 + static_cast<int>(rng.below(4));
    const Time shared_latency = rng.uniform() * 2e-3;
    for (int i = 0; i < width; ++i) {
      const auto [src, dst] = pick_pair();
      BatchPlan::Start s;
      s.at = at;
      s.src = src;
      s.dst = dst;
      s.size = 1 + rng.below(60'000'000);
      s.ecmp_key = rng.engine()();
      const double r = rng.uniform();
      s.latency = r < 0.3 ? shared_latency : (r < 0.5 ? rng.uniform() * 1e-3 : 0.0);
      s.cap = rng.uniform() < 0.2 ? gbps(3 + rng.uniform() * 30)
                                  : std::numeric_limits<Bandwidth>::infinity();
      s.weight = rng.uniform() < 0.2 ? 0.5 + rng.uniform() * 3.0 : 1.0;
      s.burst = burst;
      plan.starts.push_back(s);
    }
  }
  for (int p = 0; p < 4; ++p) {
    BatchPlan::Pulse pulse;
    pulse.target = static_cast<int>(rng.below(plan.starts.size()));
    pulse.pause_at = 0.004 + rng.uniform() * 0.04;
    pulse.resume_at = pulse.pause_at + 0.001 + rng.uniform() * 0.02;
    plan.pulses.push_back(pulse);
  }
  for (int c = 0; c < 4; ++c) {
    plan.cancels.push_back({static_cast<int>(rng.below(plan.starts.size())),
                            0.002 + rng.uniform() * 0.05});
  }
  // Two fault epochs: several links change state at one instant (a switch
  // failure takes all its ports), restored later, also in one epoch.
  for (int f = 0; f < 2; ++f) {
    BatchPlan::FaultEpoch ep;
    ep.at = 0.003 + rng.uniform() * 0.04;
    ep.clear_at = ep.at + 0.002 + rng.uniform() * 0.02;
    const int nlinks = 2 + static_cast<int>(rng.below(3));
    for (int l = 0; l < nlinks; ++l) {
      ep.links.emplace_back(static_cast<std::uint32_t>(rng.below(link_count)),
                            rng.uniform() < 0.5);
    }
    plan.faults.push_back(ep);
  }
  return plan;
}

struct BatchRunResult {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> completions;  ///< (id, tbits), arrival order
  std::vector<std::tuple<std::uint32_t, int, std::uint64_t, std::uint64_t>>
      link_log;  ///< (link, state, frac bits, time bits)
  std::uint64_t solves = 0;
};

BatchRunResult run_batch_plan(const cluster::Cluster& cl, const BatchPlan& plan,
                              bool coalesce) {
  sim::EventLoop loop;
  Network net(loop, cl.topology(),
              Network::Options{.incremental = true, .coalesce = coalesce});
  BatchRunResult res;
  std::vector<std::optional<FlowId>> ids(plan.starts.size());

  for (const auto& [src, dst] : plan.background) {
    net.start_flow({.src = src, .dst = dst, .background_demand = gbps(20),
                    .on_complete = {}});
  }
  // Group each burst's starts under one SolveBatch. With coalesce off the
  // batch calls are no-ops, so BOTH runs execute the identical mutation
  // sequence — only the solve grouping differs.
  std::vector<std::vector<std::size_t>> bursts;
  for (std::size_t i = 0; i < plan.starts.size(); ++i) {
    const std::size_t b = static_cast<std::size_t>(plan.starts[i].burst);
    if (bursts.size() <= b) bursts.resize(b + 1);
    bursts[b].push_back(i);
  }
  for (const std::vector<std::size_t>& members : bursts) {
    if (members.empty()) continue;
    loop.schedule_at(plan.starts[members.front()].at, [&, members] {
      Network::SolveBatch batch(net);
      for (std::size_t i : members) {
        const BatchPlan::Start& s = plan.starts[i];
        FlowSpec spec;
        spec.src = s.src;
        spec.dst = s.dst;
        spec.size = s.size;
        spec.ecmp_key = s.ecmp_key;
        spec.start_latency = s.latency;
        spec.rate_cap = s.cap;
        spec.weight = s.weight;
        spec.on_complete = [&res](FlowId id, Time at) {
          res.completions.emplace_back(id.get(), time_bits(at));
        };
        ids[i] = net.start_flow(std::move(spec));
      }
    });
  }
  for (const BatchPlan::Pulse& p : plan.pulses) {
    loop.schedule_at(p.pause_at, [&, p] {
      if (ids[static_cast<std::size_t>(p.target)] &&
          net.flow_active(*ids[static_cast<std::size_t>(p.target)])) {
        net.pause_flow(*ids[static_cast<std::size_t>(p.target)]);
      }
    });
    loop.schedule_at(p.resume_at, [&, p] {
      if (ids[static_cast<std::size_t>(p.target)] &&
          net.flow_active(*ids[static_cast<std::size_t>(p.target)])) {
        net.resume_flow(*ids[static_cast<std::size_t>(p.target)]);
      }
    });
  }
  for (const BatchPlan::Cancel& c : plan.cancels) {
    loop.schedule_at(c.at, [&, c] {
      if (ids[static_cast<std::size_t>(c.target)] &&
          net.flow_active(*ids[static_cast<std::size_t>(c.target)])) {
        net.cancel_flow(*ids[static_cast<std::size_t>(c.target)]);
      }
    });
  }
  for (const BatchPlan::FaultEpoch& ep : plan.faults) {
    loop.schedule_at(ep.at, [&, ep] {
      Network::SolveBatch batch(net);
      for (const auto& [l, down] : ep.links) {
        net.set_link_state(LinkId{l},
                           down ? LinkState::kDown : LinkState::kDegraded,
                           down ? 1.0 : 0.5);
      }
    });
    loop.schedule_at(ep.clear_at, [&, ep] {
      Network::SolveBatch batch(net);
      for (const auto& [l, down] : ep.links) {
        net.set_link_state(LinkId{l}, LinkState::kUp);
      }
    });
  }
  loop.run();

  for (std::size_t i = 0; i < net.link_change_end(); ++i) {
    const LinkChange& lc = net.link_change(i);
    res.link_log.emplace_back(lc.link.get(), static_cast<int>(lc.state),
                              time_bits(lc.capacity_fraction),
                              time_bits(lc.at));
  }
  res.solves = net.solves_total();
  return res;
}

/// One seed: run the same plan batched and unbatched and compare.
/// Returns the number of completions cross-checked.
std::size_t check_batched_vs_unbatched(const cluster::Cluster& cl,
                                       const std::vector<NodeId>& hosts,
                                       std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
  const BatchPlan plan =
      make_batch_plan(hosts, cl.topology().link_count(), rng);
  const BatchRunResult bat = run_batch_plan(cl, plan, /*coalesce=*/true);
  const BatchRunResult unb = run_batch_plan(cl, plan, /*coalesce=*/false);

  // Coalescing must never run MORE solves than per-mutation solving.
  EXPECT_LE(bat.solves, unb.solves) << "seed " << seed;

  // Per flow id: the completion instant is bitwise identical.
  EXPECT_EQ(bat.completions.size(), unb.completions.size()) << "seed " << seed;
  if (bat.completions.size() != unb.completions.size()) return 0;
  std::map<std::uint32_t, std::uint64_t> by_id;
  for (const auto& [id, bits] : bat.completions) {
    EXPECT_TRUE(by_id.emplace(id, bits).second)
        << "seed " << seed << ": flow " << id << " completed twice";
  }
  for (const auto& [id, bits] : unb.completions) {
    const auto it = by_id.find(id);
    EXPECT_NE(it, by_id.end()) << "seed " << seed << " flow " << id;
    if (it == by_id.end()) return 0;
    EXPECT_EQ(it->second, bits)
        << "seed " << seed << " flow " << id
        << ": batched and unbatched completion instants differ";
  }

  // The canonical (time bits, id) sort of the two streams is identical —
  // i.e. the streams are the same multiset, permuted only within instants.
  auto canonical = [](std::vector<std::pair<std::uint32_t, std::uint64_t>> v) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return std::tie(a.second, a.first) < std::tie(b.second, b.first);
    });
    return v;
  };
  EXPECT_EQ(canonical(bat.completions), canonical(unb.completions))
      << "seed " << seed;

  // The link change-log (an application-ordered journal that downstream
  // consumers replay) is entry-for-entry identical.
  EXPECT_EQ(bat.link_log, unb.link_log) << "seed " << seed;
  return bat.completions.size();
}

TEST(NetsimBatch, BatchedMatchesUnbatchedAcross500Seeds) {
  const auto cl = cluster::make_testbed();
  const auto hosts = cl.topology().hosts();

  // Seeds are independent (each builds its own EventLoop/Network), so the
  // sweep fans out across the task pool. MCCS_NETSIM_BATCH_SEEDS trims the
  // sweep for expensive instrumented runs (TSan/ASan).
  std::size_t num_seeds = 500;
  if (const char* env = std::getenv("MCCS_NETSIM_BATCH_SEEDS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) num_seeds = static_cast<std::size_t>(v);
  }
  std::atomic<std::size_t> total_completions{0};
  par::parallel_for(num_seeds, 16, [&](std::size_t begin, std::size_t end) {
    std::size_t local = 0;
    for (std::size_t seed = begin; seed < end; ++seed) {
      local += check_batched_vs_unbatched(cl, hosts, seed);
    }
    total_completions.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_GE(total_completions.load(), num_seeds);
}

// --- edge cases -------------------------------------------------------------

TEST(NetsimBatch, SameInstantLatentActivationsShareOneSolve) {
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  const NodeId a = cl.host(HostId{0}).nic_nodes[0];
  const NodeId b = cl.host(HostId{1}).nic_nodes[0];
  int completed = 0;
  // Four latent flows started at t=0 with one latency value: their
  // activation instants (0 + latency) are bit-identical, so one activation
  // cohort fires one event and its internal batch runs ONE solve.
  for (int i = 0; i < 4; ++i) {
    net.start_flow({.src = a, .dst = b, .size = 1_GB,
                    .ecmp_key = 11u + static_cast<std::uint64_t>(i),
                    .start_latency = 1e-3,
                    .on_complete = [&](FlowId, Time) { ++completed; }});
  }
  const std::uint64_t solves_before = net.solves_total();
  loop.run_until(2e-3);  // past activation, before any completion
  EXPECT_EQ(net.solves_total() - solves_before, 1u);
  EXPECT_EQ(net.active_flow_count(), 4u);
  loop.run();
  EXPECT_EQ(completed, 4);
}

TEST(NetsimBatch, CancelInsideBatchOfSameBatchStart) {
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  const NodeId a = cl.host(HostId{0}).nic_nodes[0];
  const NodeId b = cl.host(HostId{1}).nic_nodes[0];
  bool survivor_done = false;
  bool cancelled_done = false;
  const std::uint64_t solves_before = net.solves_total();
  {
    Network::SolveBatch batch(net);
    const FlowId doomed = net.start_flow(
        {.src = a, .dst = b, .size = 8_MB, .ecmp_key = 1,
         .on_complete = [&](FlowId, Time) { cancelled_done = true; }});
    net.start_flow({.src = a, .dst = b, .size = 8_MB, .ecmp_key = 2,
                    .on_complete = [&](FlowId, Time) { survivor_done = true; }});
    {
      Network::SolveBatch nested(net);  // nesting: outermost close solves
      net.cancel_flow(doomed);
    }
    EXPECT_EQ(net.solves_total(), solves_before);  // still deferred
  }
  // One batch epoch, one solve, and the cancelled flow never allocated.
  EXPECT_EQ(net.solves_total() - solves_before, 1u);
  EXPECT_EQ(net.active_flow_count(), 1u);
  loop.run();
  EXPECT_TRUE(survivor_done);
  EXPECT_FALSE(cancelled_done);
}

TEST(NetsimBatch, EmptyBatchRunsNoSolve) {
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  const std::uint64_t solves_before = net.solves_total();
  const std::uint64_t batches_before = net.batches_total();
  {
    Network::SolveBatch batch(net);
  }
  EXPECT_EQ(net.solves_total(), solves_before);
  EXPECT_EQ(net.batches_total(), batches_before);
}

TEST(NetsimBatch, EndBatchWithoutBeginThrows) {
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  EXPECT_THROW(net.end_batch(), ContractViolation);
}

TEST(NetsimBatch, MassCancelEpochRunsOneSolve) {
  // The kill_app shape: a tenant's flows all torn down at one instant must
  // cost one batch-close solve, not one per flow (regression companion to
  // FaultRecovery.TenantKillDuringBarrierDrainsAndOthersComplete, which
  // drives the same path through Fabric::kill_app).
  auto cl = cluster::make_testbed();
  sim::EventLoop loop;
  Network net(loop, cl.topology());
  const auto hosts = cl.topology().hosts();
  std::vector<FlowId> tenant_a;
  int b_completed = 0;
  for (int i = 0; i < 4; ++i) {
    tenant_a.push_back(net.start_flow(
        {.src = hosts[0], .dst = hosts[1], .size = 64_MB,
         .ecmp_key = static_cast<std::uint64_t>(i), .on_complete = {}}));
    net.start_flow({.src = hosts[2], .dst = hosts[3], .size = 1_MB,
                    .ecmp_key = 100u + static_cast<std::uint64_t>(i),
                    .on_complete = [&](FlowId, Time) { ++b_completed; }});
  }
  loop.run_until(1e-4);
  const std::uint64_t solves_before = net.solves_total();
  {
    Network::SolveBatch batch(net);
    for (const FlowId f : tenant_a) net.cancel_flow(f);
  }
  EXPECT_EQ(net.solves_total() - solves_before, 1u);
  EXPECT_EQ(net.active_flow_count(), 4u);
  loop.run();
  EXPECT_EQ(b_completed, 4);
}

// --- telemetry --------------------------------------------------------------

TEST(NetsimBatch, TelemetryNeitherPerturbsNorDivergesAcrossRuns) {
  // A shared-bottleneck cascade under batched solves: (a) the link_gbps
  // counter stream — flushed once per solve, so once per batch close — is
  // deterministic across identical runs, and (b) observing it does not
  // perturb the simulation (completion instants bitwise identical with
  // telemetry on and off).
  auto cl = cluster::make_testbed();
  auto run = [&](bool telemetry_on) {
    sim::EventLoop loop;
    Network net(loop, cl.topology());
    telemetry::Telemetry tel(telemetry_on);
    net.set_telemetry(&tel);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> completions;
    const NodeId a = cl.host(HostId{0}).nic_nodes[0];
    const NodeId b = cl.host(HostId{1}).nic_nodes[0];
    {
      Network::SolveBatch batch(net);
      for (int i = 0; i < 3; ++i) {
        net.start_flow({.src = a, .dst = b, .size = Bytes{(i + 1) * 4_MB},
                        .ecmp_key = static_cast<std::uint64_t>(i),
                        .on_complete = [&](FlowId id, Time t) {
                          completions.emplace_back(id.get(), time_bits(t));
                        }});
      }
    }
    loop.run();
    return std::pair{completions, tel.timeline().chrome_trace_json()};
  };
  const auto [done_on, trace_on] = run(true);
  const auto [done_on2, trace_on2] = run(true);
  const auto [done_off, trace_off] = run(false);
  EXPECT_EQ(done_on, done_on2);
  EXPECT_EQ(trace_on, trace_on2);          // deterministic counter stream
  EXPECT_EQ(done_on, done_off);            // observation does not perturb
  EXPECT_NE(trace_on, trace_off);          // ...but it did observe something
}

// --- FlowSimJob ring launches ---------------------------------------------

/// Per-job, per-iteration AllReduce times of a small fig11-shaped stream on
/// the 768-GPU cluster: overlapping random-GPU-ring jobs on random hosts plus
/// one locality-ring job with FFA routes installed, every ring launch issued
/// by FlowSimJob::start_iteration.
struct RingStream {
  std::vector<std::vector<Time>> allreduce_times;
  std::uint64_t solves = 0;
  /// Solves run by the first ring launch alone (job 0's first iteration,
  /// probed just after it and long before any of its flows can finish).
  std::uint64_t first_launch_solves = 0;
};

RingStream run_ring_stream(bool coalesce) {
  const cluster::Cluster cl = cluster::make_large_sim_cluster();
  sim::EventLoop loop;
  Network net(loop, cl.topology(), Network::Options{.coalesce = coalesce});
  Routing routing(cl.topology());
  Rng rng(0xF16011);

  std::vector<std::uint32_t> hosts(cl.host_count());
  for (std::uint32_t h = 0; h < hosts.size(); ++h) hosts[h] = h;
  rng.shuffle(hosts);
  constexpr int kJobs = 5;
  constexpr int kFfaJob = kJobs - 1;
  std::vector<std::unique_ptr<workload::FlowSimJob>> jobs;
  std::size_t next_host = 0;
  for (int j = 0; j < kJobs; ++j) {
    workload::SimJobSpec spec;
    spec.id = JobId{static_cast<std::uint32_t>(j)};
    spec.iterations = 4;
    spec.ring = j == kFfaJob ? workload::RingChoice::kOptimal
                             : workload::RingChoice::kRandomGpuOrder;
    const int num_hosts = j % 2 == 0 ? 2 : 4;  // 16 or 32 GPUs
    for (int k = 0; k < num_hosts; ++k) {
      const auto& gpus = cl.host(HostId{hosts[next_host++]}).gpus;
      spec.gpus.insert(spec.gpus.end(), gpus.begin(), gpus.end());
    }
    jobs.push_back(std::make_unique<workload::FlowSimJob>(loop, net, cl,
                                                          std::move(spec), rng));
  }
  policy::AssignItem item;
  item.comm = CommId{kFfaJob};
  item.app = AppId{kFfaJob};
  item.gpus_by_rank = &jobs[kFfaJob]->spec().gpus;
  item.strategy = &jobs[kFfaJob]->strategy();
  auto routes = policy::assign_flows({item}, cl, routing);
  EXPECT_FALSE(routes[kFfaJob].empty());
  jobs[kFfaJob]->set_routes(routes[kFfaJob]);

  // Staggered starts well inside one iteration, so launches land while
  // other jobs' flows are in flight.
  for (int j = 0; j < kJobs; ++j) {
    loop.schedule_at(j * millis(25), [&jobs, j] { jobs[j]->start({}); });
  }
  RingStream out;
  const Time first_launch = jobs[0]->spec().compute_gap;
  loop.schedule_at(first_launch + millis(0.001),
                   [&] { out.first_launch_solves = net.solves_total(); });
  loop.run();

  for (const auto& job : jobs) {
    EXPECT_TRUE(job->finished());
    out.allreduce_times.push_back(job->allreduce_times());
  }
  out.solves = net.solves_total();
  return out;
}

TEST(NetsimBatch, FlowSimRingLaunchesMatchUnbatchedWithFewerSolves) {
  const RingStream batched = run_ring_stream(/*coalesce=*/true);
  const RingStream unbatched = run_ring_stream(/*coalesce=*/false);
  ASSERT_EQ(batched.allreduce_times.size(), unbatched.allreduce_times.size());
  for (std::size_t j = 0; j < batched.allreduce_times.size(); ++j) {
    const auto& b = batched.allreduce_times[j];
    const auto& u = unbatched.allreduce_times[j];
    ASSERT_EQ(b.size(), 4u) << "job " << j;
    ASSERT_EQ(b.size(), u.size()) << "job " << j;
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(time_bits(b[i]), time_bits(u[i]))
          << "job " << j << " iteration " << i << ": " << b[i] << " vs " << u[i];
    }
  }
  EXPECT_LT(batched.solves, unbatched.solves);
  // One solve per ring launch, against one per inter-host ring edge.
  EXPECT_EQ(batched.first_launch_solves, 1u);
  EXPECT_GT(unbatched.first_launch_solves, 1u);
}

}  // namespace
}  // namespace mccs::net
