// Task-pool microbenchmarks: what the deterministic parallel core costs and
// what it buys, across MCCS_THREADS-style thread counts in one process.
//
// Sections (one JSON line each to BENCH_parallel.json):
//
//   dispatch        — pool fork-join overhead: an empty-body parallel_for
//                     per thread count, ns per dispatch. threads=1 is the
//                     inline path (no pool, the pre-parallel baseline).
//   sharded_reduce  — 64 MiB float32 sum reduce (the proxy engine's hot
//                     kernel) sharded across the pool; bytes/sec per count.
//   seed_sweep      — independent randomized churn seeds fanned out with
//                     parallel_for (the property-test / chaos-sweep shape).
//
// Every line carries "cores" (hardware_concurrency) and "effective_cores"
// (a fixed spin timed on that many plain threads against one: the
// parallelism the host actually delivers, which a shared or throttled
// container can hold well below "cores"). On a multi-core machine
// scripts/check.sh gates on >= 2x speedup at max threads for both sweep
// sections; on smaller machines the lines are recorded but the speedup gate
// is skipped (a 1-core container cannot speed anything up).
//
// Determinism note: the simulated results of every section are independent
// of the thread count (that is the pool's contract, enforced by
// tests/test_parallel.cpp); only the wall-clock changes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "collectives/types.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "netsim/network.h"
#include "sim/event_loop.h"

namespace {

using namespace mccs;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int> thread_sweep() {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> sweep{1, 2, 4, hw};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  return sweep;
}

// --- dispatch overhead ------------------------------------------------------

double dispatch_ns(int threads) {
  par::set_threads(threads);
  volatile std::size_t sink = 0;
  // Warm the pool (first dispatch spawns workers).
  par::parallel_for(16, 1, [&](std::size_t b, std::size_t) { sink = sink + b; });
  constexpr int kIters = 20000;
  const double t0 = now_s();
  for (int i = 0; i < kIters; ++i) {
    par::parallel_for(16, 1, [&](std::size_t b, std::size_t) { sink = sink + b; });
  }
  const double t1 = now_s();
  return (t1 - t0) / kIters * 1e9;
}

// --- effective cores ---------------------------------------------------------

/// Fixed integer spin, long enough (~tens of ms) to swamp thread start-up.
void spin() {
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ull + 1;
  sink = x;
  (void)sink;
}

/// Seconds to run `spin` once on each of `threads` plain threads.
double spin_wall(int threads) {
  const double t0 = now_s();
  {
    std::vector<std::jthread> workers;  // joined on scope exit
    for (int i = 0; i < threads; ++i) workers.emplace_back(spin);
  }
  return now_s() - t0;
}

/// `threads` x the one-thread spin time over the `threads`-way spin time
/// (best of three each): 1.0 when the threads share one core, `threads`
/// when each gets its own.
double effective_cores(int threads) {
  double one = spin_wall(1);
  double many = spin_wall(threads);
  for (int i = 0; i < 2; ++i) {
    one = std::min(one, spin_wall(1));
    many = std::min(many, spin_wall(threads));
  }
  return threads * one / many;
}

// --- sharded reduce throughput ----------------------------------------------

double reduce_gbps(int threads) {
  par::set_threads(threads);
  const std::size_t count = (std::size_t{64} << 20) / sizeof(float);
  std::vector<float> acc(count, 1.0f), in(count, 2.0f);
  const std::span<std::byte> a(reinterpret_cast<std::byte*>(acc.data()),
                               count * sizeof(float));
  const std::span<const std::byte> b(
      reinterpret_cast<const std::byte*>(in.data()), count * sizeof(float));
  // Warm-up (page faults, pool spawn).
  coll::reduce_bytes(a, b, coll::DataType::kFloat32, coll::ReduceOp::kSum);
  constexpr int kIters = 12;
  const double t0 = now_s();
  for (int i = 0; i < kIters; ++i) {
    coll::reduce_bytes(a, b, coll::DataType::kFloat32, coll::ReduceOp::kSum);
  }
  const double t1 = now_s();
  return static_cast<double>(count * sizeof(float)) * kIters / (t1 - t0) / 1e9;
}

// --- parallel seed sweep ----------------------------------------------------

/// One independent churn seed on the testbed (the property-test shape: own
/// loop, own network, nothing shared).
void run_sweep_seed(const cluster::Cluster& cl, std::uint64_t seed) {
  sim::EventLoop loop;
  net::Network net(loop, cl.topology());
  Rng rng(seed);
  const auto hosts = cl.topology().hosts();
  for (int i = 0; i < 40; ++i) {
    loop.schedule_at(rng.uniform() * 0.04, [&] {
      const NodeId src = hosts[rng.below(hosts.size())];
      NodeId dst = hosts[rng.below(hosts.size())];
      if (dst == src) dst = hosts[(dst.get() + 1) % hosts.size()];
      net::FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = 1 + rng.below(120'000'000);
      spec.ecmp_key = rng.engine()();
      spec.on_complete = {};
      net.start_flow(std::move(spec));
    });
  }
  loop.run();
}

double run_seed_sweep(const cluster::Cluster& cl, int threads) {
  par::set_threads(threads);
  constexpr std::size_t kSeeds = 24;
  const double t0 = now_s();
  par::parallel_for(kSeeds, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      run_sweep_seed(cl, 0x5EED + s);
    }
  });
  return now_s() - t0;
}

}  // namespace

int main() {
  std::printf("=== micro_parallel: task pool overhead and scaling ===\n\n");
  const int cores = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const std::vector<int> sweep = thread_sweep();
  const double eff = effective_cores(cores);

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  MCCS_CHECK(json != nullptr, "cannot open BENCH_parallel.json");
  std::printf("cores detected: %d (effective: %.2f)\n\n", cores, eff);

  // Dispatch overhead.
  std::printf("%-18s %8s %14s\n", "section", "threads", "ns/dispatch");
  for (const int t : sweep) {
    const double ns = dispatch_ns(t);
    std::printf("%-18s %8d %14.0f\n", "dispatch", t, ns);
    std::fprintf(json,
                 "{\"bench\":\"micro_parallel\",\"section\":\"dispatch\","
                 "\"threads\":%d,\"cores\":%d,\"effective_cores\":%.2f,"
                 "\"ns_per_dispatch\":%.1f}\n",
                 t, cores, eff, ns);
  }
  std::printf("\n");

  // Sharded reduce throughput.
  std::printf("%-18s %8s %11s %8s\n", "section", "threads", "GB/s|wall(s)",
              "speedup");
  double base_gbps = 0.0;
  for (const int t : sweep) {
    const double gbps = reduce_gbps(t);
    if (t == 1) base_gbps = gbps;
    const double speedup = gbps / base_gbps;
    std::printf("%-18s %8d %7.1fGB/s %7.2fx\n", "sharded_reduce", t, gbps,
                speedup);
    std::fprintf(json,
                 "{\"bench\":\"micro_parallel\",\"section\":\"sharded_reduce\","
                 "\"threads\":%d,\"cores\":%d,\"effective_cores\":%.2f,"
                 "\"buffer_mib\":64,\"gbytes_per_sec\":%.3f,"
                 "\"speedup_vs_1thread\":%.3f}\n",
                 t, cores, eff, gbps, speedup);
  }

  // Seed-sweep scaling (property-test / chaos shape).
  const auto testbed = cluster::make_testbed();
  double sweep_base = 0.0;
  for (const int t : sweep) {
    const double wall = run_seed_sweep(testbed, t);
    if (t == 1) sweep_base = wall;
    const double speedup = sweep_base / wall;
    std::printf("%-18s %8d %9.3f %8.2fx\n", "seed_sweep", t, wall, speedup);
    std::fprintf(json,
                 "{\"bench\":\"micro_parallel\",\"section\":\"seed_sweep\","
                 "\"threads\":%d,\"cores\":%d,\"effective_cores\":%.2f,"
                 "\"seeds\":24,\"wall_s\":%.6f,\"speedup_vs_1thread\":%.3f}\n",
                 t, cores, eff, wall, speedup);
  }

  par::set_threads(0);
  std::fclose(json);
  std::printf("\nBENCH_parallel.json written (one line per section x thread "
              "count).\n");
  return 0;
}
