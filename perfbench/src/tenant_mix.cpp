// tenant_mix: the paper's 4-host testbed with the controller attached
// (locality rings + FFA) and the default service config, so collectives move
// and reduce real bytes.
//
// Two tenants run concurrent closed loops through Shim -> frontend -> proxy
// -> transport -> netsim: a latency-bound tenant issuing small AllReduce /
// AllGather calls (4-64 KiB) and a bandwidth-bound tenant issuing 1-4 MiB
// AllReduce buckets. Half-way through its calls each tenant gets one
// provider reconfiguration (reversed rings, FFA routes recomputed), which
// runs the Fig.-4 barrier and invalidates the plan caches. Call counts are
// set so each tenant takes a comparable share of the host time.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "cluster/cluster.h"
#include "collectives/types.h"
#include "common/rng.h"
#include "mccs/coll_plan.h"
#include "mccs/fabric.h"
#include "mccs/proxy_engine.h"
#include "mccs/shim.h"
#include "policy/controller.h"
#include "policy/flow_assign.h"
#include "report.h"
#include "routes.h"

namespace perfbench {
namespace {

using namespace mccs;

/// A small call costs about 35 us of host time and a bulk call about 3 ms
/// (data moved), so 2000 small calls and 24 bulk calls take comparable
/// host time. The bulk tenant computes for `bulk_gap` between buckets, as a
/// data-parallel job does, so both tenants span about the same virtual time
/// and contend for the whole run.
struct MixShape {
  int small_calls = 2000;  ///< latency-bound tenant, per round
  int bulk_calls = 24;     ///< bandwidth-bound tenant, per round
  Time bulk_gap = millis(8);
  int inputs = 4;          ///< rounds per cycle
};

MixShape shape_for(const RunConfig& cfg) {
  if (cfg.tiny) return MixShape{12, 4, millis(1), 1};
  return MixShape{};
}

constexpr int kRanks = 4;
constexpr std::size_t kSmallMaxBytes = 64 * 1024;
constexpr std::size_t kBulkMaxBytes = 4 * 1024 * 1024;

struct Call {
  coll::CollectiveKind kind = coll::CollectiveKind::kAllReduce;
  std::size_t out_bytes = 0;  ///< output-buffer bytes
};

/// Call sequences of both tenants for one round input. Small calls are
/// AllReduce (two in three) or AllGather of 4-64 KiB in 1 KiB steps, drawn
/// from the seed. Bulk calls are a fixed mix (1-4 MiB equally often) in
/// seeded order, so rounds carry the same bulk bytes.
struct MixInput {
  std::vector<Call> small;
  std::vector<Call> bulk;
};

MixInput make_input(const MixShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  MixInput in;
  for (int i = 0; i < shape.small_calls; ++i) {
    Call c;
    c.kind = rng.uniform() < 2.0 / 3.0 ? coll::CollectiveKind::kAllReduce
                                       : coll::CollectiveKind::kAllGather;
    c.out_bytes = (4 + rng.below(61)) * 1024;
    in.small.push_back(c);
  }
  for (int i = 0; i < shape.bulk_calls; ++i) {
    in.bulk.push_back({coll::CollectiveKind::kAllReduce,
                       static_cast<std::size_t>(1 + i % 4) * 1024 * 1024});
  }
  rng.shuffle(in.bulk);
  return in;
}

std::size_t count_of(const Call& c) {
  const std::size_t elems = c.out_bytes / sizeof(float);
  return c.kind == coll::CollectiveKind::kAllGather ? elems / kRanks : elems;
}

/// Rank r's send buffer holds (r + 1) + (i mod 7): small integers, so float
/// sums are exact and the expected output is known in closed form.
float send_value(int rank, std::size_t i) {
  return static_cast<float>(rank + 1) + static_cast<float>(i % 7);
}

std::vector<float> expected_output(const Call& c) {
  const std::size_t count = count_of(c);
  std::vector<float> out;
  if (c.kind == coll::CollectiveKind::kAllReduce) {
    out.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      float sum = 0.0f;
      for (int r = 0; r < kRanks; ++r) sum += send_value(r, i);
      out[i] = sum;
    }
  } else {
    out.resize(count * kRanks);
    for (int r = 0; r < kRanks; ++r) {
      for (std::size_t i = 0; i < count; ++i) out[r * count + i] = send_value(r, i);
    }
  }
  return out;
}

struct Spans {
  std::uint32_t step, shim, assign, check;
};

/// One tenant's closed loop: the next call is issued when every rank
/// completed the previous one.
struct Tenant {
  AppId app;
  std::vector<GpuId> gpus;
  CommId comm;
  const std::vector<Call>* calls = nullptr;
  Time gap = 0.0;  ///< virtual compute time between calls
  std::vector<svc::Shim*> shims;
  std::vector<gpu::Stream*> streams;
  std::vector<gpu::DevicePtr> send, recv;
  int next = 0;        ///< index of the next call to issue
  int done_ranks = 0;
  Time issued_at = 0.0;
  bool finished = false;
  std::vector<double> latency_s;  ///< virtual, per call
};

struct RoundResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> small_latency_s, bulk_latency_s;
  std::vector<double> decision_s;
  std::vector<std::size_t> bulk_bytes;
  std::vector<svc::TraceRecord> records;  ///< both tenants, for identity
  double reconfig_stall_s = 0.0;
  std::uint64_t events = 0;
  std::size_t peak_active_flows = 0;
  std::uint64_t solves = 0, batches = 0, coalesced = 0, alloc_errors = 0;
  std::uint64_t plan_hits = 0, plan_misses = 0, plan_invalidations = 0;
  std::uint64_t retries = 0, escalations = 0, stalls = 0;
  std::set<std::pair<std::uint32_t, std::uint32_t>> nic_pairs;
  std::vector<std::pair<svc::CommSetup, Call>> plan_shapes;  ///< rank-0 setups
};

std::map<std::pair<int, std::size_t>, std::vector<float>>& expected_cache() {
  static std::map<std::pair<int, std::size_t>, std::vector<float>> cache;
  return cache;
}

const std::vector<float>& expected_for(const Call& c) {
  auto key = std::make_pair(static_cast<int>(c.kind), c.out_bytes);
  auto& cache = expected_cache();
  auto it = cache.find(key);
  if (it == cache.end()) it = cache.emplace(key, expected_output(c)).first;
  return it->second;
}

RoundResult run_round(const MixInput& input, Time bulk_gap, bool move_data,
                      policy::Controller::FlowPolicy flow_policy, Tracer& tracer, const Spans& sp,
                      bool collect_details, bool corrupt = false) {
  RoundResult res;
  const Clock::time_point s0 = Clock::now();
  svc::Fabric::Options options;
  options.seed = 1;
  options.config.move_data = move_data;
  options.gpu_config.materialize_memory = move_data;
  svc::Fabric fabric(cluster::make_testbed(), options);
  policy::Controller controller(fabric);
  controller.set_ring_policy(policy::Controller::RingPolicy::kLocalityAware);
  controller.set_flow_policy(flow_policy);
  controller.attach();
  fabric.set_stall_handler([&res](const svc::StallReport&) { ++res.stalls; });

  Tenant small;
  small.app = AppId{1};
  small.gpus = {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  small.calls = &input.small;
  Tenant bulk;
  bulk.app = AppId{2};
  bulk.gpus = {GpuId{1}, GpuId{3}, GpuId{5}, GpuId{7}};
  bulk.calls = &input.bulk;
  bulk.gap = bulk_gap;
  for (Tenant* t : {&small, &bulk}) {
    const std::size_t max_bytes = t == &small ? kSmallMaxBytes : kBulkMaxBytes;
    const svc::UniqueId uid = fabric.new_unique_id();
    int ready = 0;
    for (int r = 0; r < kRanks; ++r) {
      svc::Shim& shim = fabric.connect(t->app, t->gpus[static_cast<std::size_t>(r)]);
      t->shims.push_back(&shim);
      t->streams.push_back(&shim.create_app_stream());
      t->send.push_back(shim.alloc(max_bytes));
      t->recv.push_back(shim.alloc(max_bytes));
      shim.comm_init_rank(uid, kRanks, r, [t, &ready](CommId id) {
        t->comm = id;
        ++ready;
      });
      if (move_data) {
        auto span = fabric.gpus().typed<float>(t->send.back(), max_bytes / sizeof(float));
        for (std::size_t i = 0; i < span.size(); ++i) span[i] = send_value(r, i);
      }
    }
    if (!fabric.loop().run_while_pending([&] { return ready == kRanks; })) {
      throw std::runtime_error("tenant_mix: communicator bootstrap stalled");
    }
  }
  res.setup_s = std::chrono::duration<double>(Clock::now() - s0).count();

  // The provider's mid-run decision for one tenant: reversed rings from the
  // controller's ring policy, FFA routes over both tenants' communicators
  // (none under ECMP).
  auto reconfigure = [&](Tenant& t) {
    const Clock::time_point d0 = Clock::now();
    Scope span(tracer, sp.assign);
    svc::CommStrategy next = controller.ring_strategy(fabric.comm_info(t.comm));
    for (auto& o : next.channel_orders) o = o.reversed();
    if (flow_policy == policy::Controller::FlowPolicy::kEcmp) {
      fabric.reconfigure(t.comm, std::move(next));
      res.decision_s.push_back(std::chrono::duration<double>(Clock::now() - d0).count());
      return;
    }
    const Tenant& other = &t == &small ? bulk : small;
    const svc::CommStrategy other_strategy = fabric.strategy_of(other.comm);
    std::vector<policy::AssignItem> items(2);
    items[0] = {t.comm, t.app, &t.gpus, &next};
    items[1] = {other.comm, other.app, &other.gpus, &other_strategy};
    std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
      return a.comm.get() < b.comm.get();
    });
    auto routes = policy::assign_flows(items, fabric.cluster(), fabric.network().routing());
    next.routes = routes[t.comm.get()];
    fabric.reconfigure(t.comm, std::move(next));
    res.decision_s.push_back(std::chrono::duration<double>(Clock::now() - d0).count());
  };

  std::function<void(Tenant&)> issue;
  auto on_complete = [&](Tenant& t) {
    if (++t.done_ranks < kRanks) return;
    t.latency_s.push_back(fabric.loop().now() - t.issued_at);
    ++res.attempted;
    if (move_data) {
      Untimed check(tracer, sp.check);
      const Call& c = (*t.calls)[static_cast<std::size_t>(t.next - 1)];
      const std::vector<float>& want = expected_for(c);
      if (corrupt && res.attempted == 1) {
        fabric.gpus().typed<std::byte>(t.recv[0], 1)[0] ^= std::byte{1};
      }
      for (int r = 0; r < kRanks; ++r) {
        auto got = fabric.gpus().typed<float>(t.recv[static_cast<std::size_t>(r)], want.size());
        if (std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) != 0) {
          ++res.failed;
          res.errors.push_back("tenant_mix: wrong collective output");
          break;
        }
      }
    }
    if (t.next == static_cast<int>(t.calls->size())) {
      t.finished = true;
      return;
    }
    if (t.gap > 0.0) {
      fabric.loop().schedule_after(t.gap, [&issue, &t] { issue(t); });
    } else {
      issue(t);
    }
  };
  auto call_rank = [&](Tenant& t, const Call& c, std::size_t ri) {
    Scope span(tracer, sp.shim);
    auto cb = [&on_complete, &t](Time) { on_complete(t); };
    if (c.kind == coll::CollectiveKind::kAllReduce) {
      t.shims[ri]->all_reduce(t.comm, t.send[ri], t.recv[ri], count_of(c),
                              coll::DataType::kFloat32, coll::ReduceOp::kSum, *t.streams[ri], cb);
    } else {
      t.shims[ri]->all_gather(t.comm, t.send[ri], t.recv[ri], count_of(c),
                              coll::DataType::kFloat32, *t.streams[ri], cb);
    }
  };
  issue = [&](Tenant& t) {
    const Call& c = (*t.calls)[static_cast<std::size_t>(t.next)];
    ++t.next;
    t.done_ranks = 0;
    t.issued_at = fabric.loop().now();
    if (move_data) {
      // Poison the outputs so a collective that does not write them fails.
      Untimed fill(tracer, sp.check);
      for (int r = 0; r < kRanks; ++r) {
        auto out = fabric.gpus().typed<std::byte>(t.recv[static_cast<std::size_t>(r)], c.out_bytes);
        std::memset(out.data(), 0xff, out.size());
      }
    }
    for (std::size_t r = 0; r < kRanks; ++r) call_rank(t, c, r);
    if (t.next == static_cast<int>(t.calls->size()) / 2) reconfigure(t);
  };

  const double untimed0 = tracer.untimed_s();
  const Clock::time_point w0 = Clock::now();
  issue(small);
  issue(bulk);
  sim::EventLoop& loop = fabric.loop();
  net::Network& network = fabric.network();
  auto finished = [&] { return small.finished && bulk.finished; };
  if (tracer.enabled()) {
    while (!finished()) {
      Scope span(tracer, sp.step);
      if (!loop.step()) break;
      ++res.events;
      res.peak_active_flows = std::max(res.peak_active_flows, network.active_flow_count());
    }
  } else {
    while (!finished() && loop.step()) ++res.events;
  }
  res.wall_s = std::chrono::duration<double>(Clock::now() - w0).count() -
               (tracer.untimed_s() - untimed0);

  if (!finished()) {
    res.errors.push_back("tenant_mix: a tenant's closed loop stalled");
    res.failed += (small.calls->size() - small.latency_s.size()) +
                  (bulk.calls->size() - bulk.latency_s.size());
    res.attempted += res.failed;
  }
  res.small_latency_s = small.latency_s;
  res.bulk_latency_s = bulk.latency_s;
  for (const Call& c : input.bulk) res.bulk_bytes.push_back(c.out_bytes);
  for (const Tenant* t : {&small, &bulk}) {
    auto recs = fabric.trace(t->app);
    res.records.insert(res.records.end(), recs.begin(), recs.end());
    // Reconfiguration stall: the slowest of the calls issued around the
    // command, beyond the tenant's median latency.
    std::vector<double> lat = t->latency_s;
    const std::size_t half = t->calls->size() / 2;
    double around = 0.0;
    for (std::size_t i = half == 0 ? 0 : half - 1; i < std::min(lat.size(), half + 2); ++i) {
      around = std::max(around, lat[i]);
    }
    res.reconfig_stall_s += std::max(0.0, around - median(lat));
  }
  res.solves = network.solves_total();
  res.batches = network.batches_total();
  res.coalesced = network.coalesced_flows_total();
  res.alloc_errors = network.allocation_error_count();
  const auto& reg = fabric.telemetry().metrics();
  res.plan_hits = reg.counter_total("plan_cache_hits");
  res.plan_misses = reg.counter_total("plan_cache_misses");
  res.plan_invalidations = reg.counter_total("plan_cache_invalidations");
  res.retries = reg.counter_total("transport_retries");
  res.escalations = reg.counter_total("transport_escalations");
  if (res.retries != 0 || res.escalations != 0 || res.stalls != 0) {
    res.errors.push_back("tenant_mix: transport stalled, retried or escalated");
  }

  if (collect_details) {
    const auto& cl = fabric.cluster();
    for (const Tenant* t : {&small, &bulk}) {
      const svc::CommStrategy strategy = fabric.strategy_of(t->comm);
      for (const auto& order : strategy.channel_orders) {
        for (int p = 0; p < kRanks; ++p) {
          const GpuId a = t->gpus[static_cast<std::size_t>(order.rank_at(p))];
          const GpuId b = t->gpus[static_cast<std::size_t>(order.rank_at(p + 1))];
          if (cl.same_host(a, b)) continue;
          res.nic_pairs.insert({cl.nic_node_of_gpu(a).get(), cl.nic_node_of_gpu(b).get()});
        }
      }
      svc::CommSetup setup;
      setup.id = t->comm;
      setup.app = t->app;
      setup.rank = 0;
      setup.nranks = kRanks;
      setup.gpus = t->gpus;
      setup.strategy = strategy;
      std::set<std::pair<int, std::size_t>> seen;
      for (const Call& c : *t->calls) {
        if (seen.insert({static_cast<int>(c.kind), c.out_bytes}).second) {
          res.plan_shapes.push_back({setup, c});
        }
      }
    }
  }
  return res;
}

/// Virtual-time identity of two runs of one input.
bool same_virtual(const std::vector<svc::TraceRecord>& a, const std::vector<svc::TraceRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].comm != b[i].comm || a[i].seq != b[i].seq || a[i].rank != b[i].rank ||
        a[i].issued != b[i].issued || a[i].launched != b[i].launched ||
        a[i].started != b[i].started || a[i].completed != b[i].completed) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome run_tenant_mix(const RunConfig& cfg) {
  const MixShape shape = shape_for(cfg);
  Tracer tracer(cfg.trace);
  const Spans sp{tracer.intern("sim.step"), tracer.intern("mccs.shim_call"),
                 tracer.intern("policy.assign"), tracer.intern("check")};
  std::vector<MixInput> inputs;
  for (int i = 0; i < shape.inputs; ++i) {
    inputs.push_back(make_input(shape, derive_seed(cfg.seed, static_cast<std::uint64_t>(i))));
  }

  Outcome out;
  auto absorb = [&out](const RoundResult& r) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    for (const std::string& e : r.errors) out.fail(e);
  };
  std::vector<double> small_lat, stall_s;
  double bulk_gap_s = 0.0;  ///< bulk tenant's compute time (cycle 0)
  std::vector<std::vector<double>> decisions;  // by cycle
  double ffa_call_s = 0.0, ecmp_call_s = 0.0;
  using FlowPolicy = policy::Controller::FlowPolicy;
  double input0_wall = 0.0;  ///< latest timed wall of input 0
  double bulk_bus_bytes = 0.0, bulk_time = 0.0;
  RoundResult first;   ///< cycle 0, input 0: per-layer details
  RoundResult counts;  ///< cycle-0 totals of the per-layer counters
  double traced_wall = 0.0;
  std::vector<double> rec_queue, rec_sync, rec_xfer;

  const RoundLog log = run_rounds(cfg.seconds, shape.inputs, [&](int cycle, int input) {
    const bool details = cycle == 0 && input == 0;
    const MixInput& in = inputs[static_cast<std::size_t>(input)];
    RoundResult r = run_round(in, shape.bulk_gap, true, FlowPolicy::kFfa, tracer, sp, details, cfg.corrupt);
    const RoundTimes times{r.setup_s, r.wall_s};
    absorb(r);
    decisions.resize(static_cast<std::size_t>(cycle) + 1);
    decisions.back().insert(decisions.back().end(), r.decision_s.begin(), r.decision_s.end());
    if (cfg.trace) traced_wall += r.wall_s;
    if (input == 0) input0_wall = r.wall_s;
    counts.peak_active_flows = std::max(counts.peak_active_flows, r.peak_active_flows);
    if (cycle == 0) {
      // The same calls under ECMP routes, for the virtual FFA speedup. Data
      // movement does not change virtual time, so this replay skips it.
      const bool on = tracer.enabled();
      tracer.set_enabled(false);
      const RoundResult ecmp = run_round(in, shape.bulk_gap, false, FlowPolicy::kEcmp, tracer, sp, false);
      tracer.set_enabled(on);
      absorb(ecmp);
      for (const RoundResult* x : {static_cast<const RoundResult*>(&r), &ecmp}) {
        double sum = 0.0;
        for (double v : x->small_latency_s) sum += v;
        for (double v : x->bulk_latency_s) sum += v;
        (x == &r ? ffa_call_s : ecmp_call_s) += sum;
      }
      small_lat.insert(small_lat.end(), r.small_latency_s.begin(), r.small_latency_s.end());
      for (std::size_t i = 0; i < r.bulk_latency_s.size(); ++i) {
        bulk_bus_bytes += 2.0 * (kRanks - 1) / kRanks * static_cast<double>(r.bulk_bytes[i]);
        bulk_time += r.bulk_latency_s[i];
      }
      bulk_gap_s += shape.bulk_gap * static_cast<double>(r.bulk_latency_s.size() - 1);
      stall_s.push_back(r.reconfig_stall_s);
      counts.events += r.events;
      counts.solves += r.solves;
      counts.batches += r.batches;
      counts.coalesced += r.coalesced;
      counts.alloc_errors += r.alloc_errors;
      counts.plan_hits += r.plan_hits;
      counts.plan_misses += r.plan_misses;
      counts.plan_invalidations += r.plan_invalidations;
      counts.retries += r.retries;
      counts.escalations += r.escalations;
      for (const svc::TraceRecord& rec : r.records) {
        rec_queue.push_back(rec.launched - rec.issued);
        rec_sync.push_back(rec.started - rec.launched);
        rec_xfer.push_back(rec.completed - rec.started);
      }
      if (details) first = std::move(r);
    }
    return times;
  });

  if (!cfg.trace) {
    add_round_metrics(out, log);
    out.add("ffa_speedup", ffa_call_s > 0.0 ? ecmp_call_s / ffa_call_s : 0.0,
            "virtual call time of both tenants, ECMP over FFA");
    add_p50_p99(out, "small_lat_us", small_lat, 1e6);
    out.add("bulk_busbw_gbps", bulk_time > 0.0 ? bulk_bus_bytes * 8.0 / bulk_time / 1e9 : 0.0);
    add_p50_p99(out, "decision_us", quiet_samples(decisions), 1e6);
    // Both tenants hold their GPUs for the whole run; of the bulk tenant's
    // GPU time, the share spent computing rather than in its collectives.
    out.add("goodput", bulk_gap_s + bulk_time > 0.0 ? bulk_gap_s / (bulk_gap_s + bulk_time) : 0.0,
            "bulk tenant's compute share of its GPU time");
    return out;
  }

  // Untraced runs of input 0 with data movement on and off: the tracing
  // overhead and gpusim's share of the host time. Virtual outputs must not
  // depend on tracing or on data movement.
  tracer.set_enabled(false);
  std::vector<double> on_wall, off_wall;
  for (int rep = 0; rep < 3; ++rep) {
    for (const bool move_data : {true, false}) {
      const RoundResult ref = run_round(inputs[0], shape.bulk_gap, move_data, FlowPolicy::kFfa, tracer, sp, false);
      absorb(ref);
      if (!same_virtual(ref.records, first.records)) {
        out.fail(std::string("tenant_mix: virtual outputs differ with ") +
                 (move_data ? "tracing off" : "data movement off"));
      }
      (move_data ? on_wall : off_wall).push_back(ref.wall_s);
    }
  }

  out.add("sim.events", static_cast<double>(counts.events));
  const SpanStats& step = tracer.stats("sim.step");
  add_p50_p99(out, "sim.step_us", std::vector<double>(step.durations_us.begin(),
                                                       step.durations_us.end()));
  const double per_round = 1.0 / std::max(1, log.rounds);
  out.add("sim.step_self_s", step.self_s * per_round, "per round");
  out.add("netsim.solves", static_cast<double>(counts.solves));
  out.add("netsim.batches", static_cast<double>(counts.batches));
  out.add("netsim.coalesced_flows", static_cast<double>(counts.coalesced));
  out.add("netsim.solves_per_event",
          counts.events > 0 ? static_cast<double>(counts.solves) / counts.events : 0.0);
  out.add("netsim.peak_active_flows", static_cast<double>(counts.peak_active_flows));
  out.add("netsim.allocation_errors", static_cast<double>(counts.alloc_errors));
  {
    const cluster::Cluster cl = cluster::make_testbed();
    const RouteTiming rt = time_routes(cl.topology(), first.nic_pairs);
    out.add("netsim.route_fill_us", rt.fill_us, std::to_string(first.nic_pairs.size()) + " pairs");
    out.add("netsim.route_lookup_ns", rt.lookup_ns);
  }
  const SpanStats& assign = tracer.stats("policy.assign");
  std::vector<double> assign_us(assign.durations_us.begin(), assign.durations_us.end());
  add_p50_p99(out, "policy.assign_us", assign_us);
  out.add("policy.assign_self_s", assign.self_s * per_round, "per round");
  out.add("policy.full_assign_us_p50", median(assign_us), "the decision is a full assignment");
  const SpanStats& shim = tracer.stats("mccs.shim_call");
  add_p50_p99(out, "mccs.shim_call_us", std::vector<double>(shim.durations_us.begin(),
                                                             shim.durations_us.end()));
  out.add("mccs.shim_self_s", shim.self_s * per_round, "per round");
  const double lookups = static_cast<double>(counts.plan_hits + counts.plan_misses);
  out.add("mccs.plan_hit_rate", lookups > 0.0 ? counts.plan_hits / lookups : 0.0);
  out.add("mccs.plan_invalidations", static_cast<double>(counts.plan_invalidations));
  out.add("mccs.transport_retries", static_cast<double>(counts.retries));
  out.add("mccs.transport_escalations", static_cast<double>(counts.escalations));
  add_p50_p99(out, "mccs.virt_queue_us", rec_queue, 1e6);
  add_p50_p99(out, "mccs.virt_sync_us", rec_sync, 1e6);
  add_p50_p99(out, "mccs.virt_xfer_us", rec_xfer, 1e6);
  out.add("mccs.reconfig_stall_us", median(stall_s) * 1e6, "median per round, both tenants");

  // Collective plans and reductions on this workload's own shapes.
  {
    const cluster::Cluster cl = cluster::make_testbed();
    std::vector<double> build_us;
    double acquire_s = 0.0, acquires = 0.0, reduce_bytes = 0.0, reduce_s = 0.0;
    for (const auto& [setup, call] : first.plan_shapes) {
      constexpr int kBuilds = 50;
      std::shared_ptr<const svc::CollPlan> plan;
      const Clock::time_point b0 = Clock::now();
      for (int i = 0; i < kBuilds; ++i) {
        plan = svc::build_coll_plan(setup, setup.strategy, cl, call.kind, count_of(call),
                                    coll::DataType::kFloat32, 0);
      }
      build_us.push_back(std::chrono::duration<double>(Clock::now() - b0).count() * 1e6 / kBuilds);
      svc::CollPlanCache cache;
      constexpr int kAcquires = 20000;
      (void)cache.acquire(0, true, setup, setup.strategy, cl, call.kind, count_of(call),
                          coll::DataType::kFloat32, 0);
      const Clock::time_point a0 = Clock::now();
      for (int i = 0; i < kAcquires; ++i) {
        plan = cache.acquire(0, true, setup, setup.strategy, cl, call.kind, count_of(call),
                             coll::DataType::kFloat32, 0);
      }
      acquire_s += std::chrono::duration<double>(Clock::now() - a0).count();
      acquires += kAcquires;
      if (call.kind != coll::CollectiveKind::kAllReduce) continue;
      for (const auto& ch : plan->channels) {
        for (const svc::PlanByteRange& range : ch.chunk_ranges) {
          std::vector<std::byte> acc(range.len, std::byte{1}), in(range.len, std::byte{0});
          const int reps = static_cast<int>(std::max<std::size_t>(1, (1u << 22) / range.len));
          const Clock::time_point r0 = Clock::now();
          for (int i = 0; i < reps; ++i) {
            coll::reduce_bytes(acc, in, coll::DataType::kFloat32, coll::ReduceOp::kSum);
          }
          reduce_s += std::chrono::duration<double>(Clock::now() - r0).count();
          reduce_bytes += static_cast<double>(range.len) * reps;
        }
      }
    }
    double build_mean = 0.0;
    for (double b : build_us) build_mean += b;
    out.add("collectives.plan_build_us", build_us.empty() ? 0.0 : build_mean / build_us.size(),
            "mean over " + std::to_string(build_us.size()) + " shapes");
    out.add("collectives.plan_acquire_ns", acquires > 0.0 ? acquire_s * 1e9 / acquires : 0.0);
    out.add("collectives.reduce_gbps", reduce_s > 0.0 ? reduce_bytes / reduce_s / 1e9 : 0.0,
            "f32 sum over the AllReduce chunk sizes");
  }
  const double on = median(on_wall);
  out.add("gpusim.data_share", on > 0.0 ? 1.0 - median(off_wall) / on : 0.0,
          "1 - wall(move_data off)/wall(on), input 0");
  add_trace_metrics(out, tracer, traced_wall, input0_wall, on);
  add_bypassed(out, {"policy.", "cluster.", "workload."});
  if (!cfg.out_dir.empty()) tracer.write_json(cfg.out_dir + "/tenant_mix.spans.json");
  return out;
}

}  // namespace perfbench
