// Tests of the workload layer: model specs, the traffic generator driving
// real MCCS collectives, placement, and the §6.5 flow-level job simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "cluster/placement.h"
#include "helpers.h"
#include "mccs/fabric.h"
#include "policy/controller.h"
#include "workload/flowsim.h"
#include "workload/models.h"
#include "workload/traffic_gen.h"

namespace mccs::workload {
namespace {

TEST(Models, Vgg19GradientVolumeMatchesModelArithmetic) {
  const auto m = vgg19_data_parallel();
  EXPECT_EQ(m.parallelism, Parallelism::kDataParallel);
  EXPECT_NEAR(static_cast<double>(m.total_comm_bytes_per_iter()), 574.8e6, 1e6);
  for (Bytes b : m.grad_buckets) EXPECT_LE(b, 25'000'000u);
}

TEST(Models, GptTensorParallelCommVolume) {
  const auto m = gpt27b_tensor_parallel();
  EXPECT_EQ(m.parallelism, Parallelism::kTensorParallel);
  // 32 layers x 2 passes x 2 collectives x 20 MB = 2.56 GiB-ish.
  EXPECT_EQ(m.total_comm_bytes_per_iter(),
            32ull * 2 * 2 * m.tp_activation_bytes);
}

TEST(Models, ProductionGroupsSpanDifferentBalances) {
  const auto groups = production_model_groups();
  ASSERT_EQ(groups.size(), 4u);
  // Group D is input-bound: much more H2D traffic than group B.
  EXPECT_GT(groups[3].h2d_bytes_per_iter, groups[1].h2d_bytes_per_iter * 4);
}

TEST(TrainingJobTest, DataParallelJobCompletesAllIterations) {
  svc::Fabric fabric{cluster::make_testbed()};
  TrainingModelSpec m = resnet50_ddp();
  // Shrink for test speed.
  m.grad_buckets = {4_MB, 4_MB};
  m.h2d_bytes_per_iter = 1_MB;
  m.forward_compute = millis(2);
  m.backward_compute = millis(4);
  m.optimizer_compute = millis(1);
  m.input_stall = millis(1);

  TrainingJob job(fabric, AppId{1}, {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}}, m,
                  {.iterations = 5});
  bool done = false;
  job.start([&](Time) { done = true; });
  fabric.loop().run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.iteration_end_times().size(), 5u);
  // Iterations strictly increase in time.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_GT(job.iteration_end_times()[i], job.iteration_end_times()[i - 1]);
  }
}

TEST(TrainingJobTest, TensorParallelJobCompletes) {
  svc::Fabric fabric{cluster::make_testbed()};
  TrainingModelSpec m = gpt27b_tensor_parallel();
  m.layers = 4;
  m.tp_activation_bytes = 2_MB;
  m.forward_compute = millis(4);
  m.backward_compute = millis(8);
  m.h2d_bytes_per_iter = 0;
  m.input_stall = 0;

  TrainingJob job(fabric, AppId{1}, {GpuId{0}, GpuId{1}}, m, {.iterations = 3});
  bool done = false;
  job.start([&](Time) { done = true; });
  fabric.loop().run();
  ASSERT_TRUE(done);
  // TP communication is on the critical path: each iteration must take at
  // least the pure compute time plus something for the collectives.
  const auto& ends = job.iteration_end_times();
  const Time iter_time = ends[1] - ends[0];
  EXPECT_GT(iter_time, m.forward_compute + m.backward_compute + m.optimizer_compute);
}

TEST(TrainingJobTest, BreakdownFractionsSumToOne) {
  svc::Fabric fabric{cluster::make_testbed()};
  TrainingModelSpec m = resnet50_ddp();
  m.grad_buckets = {4_MB};
  m.forward_compute = millis(3);
  m.backward_compute = millis(3);
  m.optimizer_compute = millis(1);
  m.h2d_bytes_per_iter = 8_MB;
  m.input_stall = millis(2);
  TrainingJob job(fabric, AppId{1}, {GpuId{0}, GpuId{4}}, m, {.iterations = 4});
  job.start();
  fabric.loop().run();
  ASSERT_TRUE(job.finished());
  const auto b = job.breakdown();
  EXPECT_NEAR(b.compute_frac + b.memcpy_frac + b.comm_frac + b.idle_frac, 1.0, 1e-6);
  EXPECT_GT(b.compute_frac, 0.0);
  EXPECT_GT(b.memcpy_frac, 0.0);
  EXPECT_GT(b.comm_frac, 0.0);
  EXPECT_GT(b.idle_frac, 0.0);
}

TEST(TrainingJobTest, OverlapMakesDataParallelFasterThanSerialBound) {
  // With DDP-style overlap, iteration time is well below compute + full
  // serial communication.
  svc::Fabric fabric{cluster::make_testbed()};
  TrainingModelSpec m = resnet50_ddp();
  m.grad_buckets.assign(8, 8_MB);
  m.forward_compute = millis(10);
  m.backward_compute = millis(40);
  m.optimizer_compute = millis(2);
  m.h2d_bytes_per_iter = 0;
  m.input_stall = 0;
  TrainingJob job(fabric, AppId{1}, {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}}, m,
                  {.iterations = 3});
  job.start();
  fabric.loop().run();
  const auto& ends = job.iteration_end_times();
  const Time iter = ends[2] - ends[1];
  // Serial bound: compute + all 64 MB AllReduced at ~4+ GB/s effective.
  const Time compute = m.forward_compute + m.backward_compute + m.optimizer_compute;
  EXPECT_GT(iter, compute);  // communication not free...
  // ...but overlapped: far less than compute + comm-after-compute.
  const double comm_serial =
      2.0 * 3 / 4 * 64e6 / gbps(50);  // all buckets, serial, single NIC pair
  EXPECT_LT(iter, compute + comm_serial);
}

}  // namespace
}  // namespace mccs::workload

namespace mccs::cluster {
namespace {

TEST(Placement, RandomAllocatesExactlyNDistinctFreeGpus) {
  auto cl = make_large_sim_cluster();
  GpuAllocator alloc(cl);
  Rng rng(3);
  auto a = alloc.allocate(32, Placement::kRandom, rng);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size(), 32u);
  std::set<std::uint32_t> uniq;
  for (GpuId g : *a) uniq.insert(g.get());
  EXPECT_EQ(uniq.size(), 32u);
  EXPECT_EQ(alloc.free_count(), cl.gpu_count() - 32);
}

TEST(Placement, CompactPacksIntoOneRackWhenPossible) {
  auto cl = make_large_sim_cluster();  // 32 GPUs per rack
  GpuAllocator alloc(cl);
  Rng rng(3);
  auto a = alloc.allocate(32, Placement::kCompact, rng);
  ASSERT_TRUE(a.has_value());
  std::set<std::uint32_t> racks;
  for (GpuId g : *a) racks.insert(cl.rack_of_gpu(g).get());
  EXPECT_EQ(racks.size(), 1u);
}

TEST(Placement, CompactSpillsToMinimalRacks) {
  auto cl = make_large_sim_cluster();
  GpuAllocator alloc(cl);
  Rng rng(3);
  auto a = alloc.allocate(48, Placement::kCompact, rng);  // 1.5 racks
  ASSERT_TRUE(a.has_value());
  std::set<std::uint32_t> racks;
  for (GpuId g : *a) racks.insert(cl.rack_of_gpu(g).get());
  EXPECT_EQ(racks.size(), 2u);
}

TEST(Placement, AllocationFailsWhenFullAndReleaseRestores) {
  auto cl = make_testbed();  // 8 GPUs
  GpuAllocator alloc(cl);
  Rng rng(1);
  auto a = alloc.allocate(8, Placement::kRandom, rng);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(alloc.allocate(1, Placement::kRandom, rng).has_value());
  alloc.release(*a);
  EXPECT_TRUE(alloc.allocate(8, Placement::kCompact, rng).has_value());
}

TEST(Placement, RejectedReleaseChangesNothing) {
  auto cl = make_testbed();  // 8 GPUs, 4 per rack
  GpuAllocator alloc(cl);
  GpuAllocator same(cl);  // the state alloc must keep after each rejection
  Rng rng(1);
  auto a = alloc.allocate(3, Placement::kCompact, rng);
  ASSERT_TRUE(a.has_value());
  ASSERT_EQ(same.allocate(3, Placement::kCompact, rng), a);
  const GpuId free_gpu{7};
  ASSERT_EQ(std::count(a->begin(), a->end(), free_gpu), 0);

  const std::vector<std::vector<GpuId>> bad = {
      {(*a)[0], GpuId{static_cast<std::uint32_t>(cl.gpu_count())}},  // out of range
      {(*a)[0], free_gpu},                                           // already free
      {(*a)[0], (*a)[1], (*a)[0]},                                   // duplicate
  };
  for (const std::vector<GpuId>& gpus : bad) {
    EXPECT_THROW(alloc.release(gpus), ContractViolation);
    EXPECT_EQ(alloc.free_count(), same.free_count());
    auto next = alloc.allocate(2, Placement::kCompact, rng);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next, same.allocate(2, Placement::kCompact, rng));
    alloc.release(*next);
    same.release(*next);
  }
  alloc.release(*a);
  EXPECT_EQ(alloc.free_count(), cl.gpu_count());
}

/// The compact placement as it was before the per-rack free index: a fresh
/// map of every free GPU by rack on each call. Kept verbatim as the oracle.
class ReferenceAllocator {
 public:
  explicit ReferenceAllocator(const Cluster& cluster)
      : cluster_(&cluster), in_use_(cluster.gpu_count(), false), free_(cluster.gpu_count()) {}

  [[nodiscard]] std::size_t free_count() const { return free_; }

  std::optional<std::vector<GpuId>> allocate(int n, Placement placement, Rng& rng) {
    MCCS_EXPECTS(n > 0);
    if (static_cast<std::size_t>(n) > free_) return std::nullopt;

    std::vector<GpuId> chosen;
    chosen.reserve(static_cast<std::size_t>(n));

    if (placement == Placement::kRandom) {
      std::vector<GpuId> free_gpus;
      for (std::uint32_t g = 0; g < in_use_.size(); ++g) {
        if (!in_use_[g]) free_gpus.push_back(GpuId{g});
      }
      rng.shuffle(free_gpus);
      chosen.assign(free_gpus.begin(), free_gpus.begin() + n);
    } else {
      std::map<std::uint32_t, std::vector<GpuId>> by_rack;
      for (std::uint32_t g = 0; g < in_use_.size(); ++g) {
        if (!in_use_[g]) by_rack[cluster_->rack_of_gpu(GpuId{g}).get()].push_back(GpuId{g});
      }
      int remaining = n;
      while (remaining > 0) {
        std::uint32_t best_rack = 0;
        std::size_t best_size = 0;
        bool found_fit = false;
        std::size_t fit_size = static_cast<std::size_t>(-1);
        for (const auto& [rack, gpus] : by_rack) {
          if (gpus.empty()) continue;
          if (gpus.size() >= static_cast<std::size_t>(remaining) &&
              gpus.size() < fit_size) {
            found_fit = true;
            fit_size = gpus.size();
            best_rack = rack;
          }
          if (!found_fit && gpus.size() > best_size) {
            best_size = gpus.size();
            best_rack = rack;
          }
        }
        auto& gpus = by_rack[best_rack];
        const int take = std::min<int>(remaining, static_cast<int>(gpus.size()));
        std::sort(gpus.begin(), gpus.end());
        chosen.insert(chosen.end(), gpus.begin(), gpus.begin() + take);
        gpus.erase(gpus.begin(), gpus.begin() + take);
        remaining -= take;
      }
    }

    for (GpuId g : chosen) {
      MCCS_CHECK(!in_use_[g.get()], "allocator chose an occupied GPU");
      in_use_[g.get()] = true;
    }
    free_ -= static_cast<std::size_t>(n);
    return chosen;
  }

  void release(const std::vector<GpuId>& gpus) {
    for (GpuId g : gpus) {
      MCCS_EXPECTS(in_use_[g.get()]);
      in_use_[g.get()] = false;
    }
    free_ += gpus.size();
  }

 private:
  const Cluster* cluster_;
  std::vector<bool> in_use_;
  std::size_t free_;
};

/// Racks interleaved across add_host calls with unequal sizes, so a rack's
/// GPU ids are not contiguous and rack ids do not follow GPU order.
Cluster make_interleaved_racks() {
  Cluster c;
  const std::uint32_t racks[] = {2, 0, 2, 1, 0, 2, 3, 1, 2, 0, 3, 2};
  const int gpus[] = {4, 2, 8, 4, 2, 4, 8, 2, 4, 2, 2, 8};
  for (std::size_t h = 0; h < std::size(racks); ++h) {
    c.add_host(RackId{racks[h]}, PodId{0}, gpus[h], {NodeId{0}});
  }
  return c;
}

std::size_t largest_rack(const Cluster& cl) {
  std::map<std::uint32_t, std::size_t> sizes;
  for (GpuId g : cl.all_gpus()) ++sizes[cl.rack_of_gpu(g).get()];
  std::size_t largest = 0;
  for (const auto& [rack, size] : sizes) largest = std::max(largest, size);
  return largest;
}

TEST(Placement, CompactMatchesReferenceUnderChurn) {
  struct Case {
    const char* name;
    Cluster cluster;
    int ops;
  };
  std::vector<Case> cases;
  cases.push_back({"testbed", make_testbed(), 400});
  cases.push_back({"large_sim", make_large_sim_cluster(), 600});
  cases.push_back({"clos_4k", make_scaled_sim_cluster(4096), 600});
  cases.push_back({"fat_tree", make_fat_tree(FatTreeSpec{}), 400});
  cases.push_back({"interleaved", make_interleaved_racks(), 600});

  for (const Case& c : cases) {
    const int max_n = static_cast<int>(2 * largest_rack(c.cluster));
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      GpuAllocator alloc(c.cluster);
      ReferenceAllocator ref(c.cluster);
      Rng drive(seed);
      Rng rng(seed * 7919);
      Rng ref_rng(seed * 7919);
      std::vector<std::vector<GpuId>> live;
      for (int op = 0; op < c.ops; ++op) {
        if (!live.empty() && drive.uniform() < 0.45) {
          const std::size_t i = drive.below(live.size());
          alloc.release(live[i]);
          ref.release(live[i]);
          live[i] = std::move(live.back());
          live.pop_back();
        } else {
          const int n = 1 + static_cast<int>(drive.below(static_cast<std::uint64_t>(max_n)));
          const Placement p =
              drive.uniform() < 0.7 ? Placement::kCompact : Placement::kRandom;
          auto got = alloc.allocate(n, p, rng);
          auto want = ref.allocate(n, p, ref_rng);
          ASSERT_EQ(got, want) << "op " << op << " n " << n;
          if (got) live.push_back(std::move(*got));
        }
        ASSERT_EQ(alloc.free_count(), ref.free_count()) << "op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace mccs::cluster

namespace mccs::workload {
namespace {

TEST(FlowSim, OptimalRingBeatsRandomRingOnCrossRackJob) {
  auto cl = cluster::make_large_sim_cluster();
  // A 32-GPU job on two hosts in each of two racks: a random host order
  // crosses the rack boundary up to 4 times, the optimal ring exactly twice.
  std::vector<GpuId> gpus;
  for (int h : {0, 1, 4, 5}) {
    for (int g = 0; g < 8; ++g) {
      gpus.push_back(GpuId{static_cast<std::uint32_t>(h * 8 + g)});
    }
  }
  auto run = [&](RingChoice ring, std::uint64_t seed) {
    sim::EventLoop loop;
    net::Network net(loop, cl.topology());
    Rng rng(seed);
    SimJobSpec spec;
    spec.id = JobId{0};
    spec.gpus = gpus;
    spec.iterations = 3;
    spec.ring = ring;
    FlowSimJob job(loop, net, cl, spec, rng);
    job.start({});
    loop.run();
    return job.avg_allreduce_time();
  };
  // Average a few random seeds: random rings zig-zag across racks.
  double random_avg = 0;
  for (std::uint64_t s = 1; s <= 6; ++s) random_avg += run(RingChoice::kRandomHostOrder, s);
  random_avg /= 6;
  const double optimal = run(RingChoice::kOptimal, 1);
  EXPECT_LT(optimal, random_avg);
}

TEST(FlowSim, FfaRoutesImproveOrMatchEcmp) {
  auto cl = cluster::make_large_sim_cluster();
  std::vector<GpuId> gpus;
  for (int h = 0; h < 2; ++h) {
    for (int g = 0; g < 8; ++g) {
      gpus.push_back(GpuId{static_cast<std::uint32_t>(h * 4 * 8 + g)});
    }
  }
  auto run = [&](bool ffa) {
    sim::EventLoop loop;
    net::Network net(loop, cl.topology());
    Rng rng(11);
    SimJobSpec spec;
    spec.id = JobId{0};
    spec.gpus = gpus;
    spec.iterations = 3;
    spec.ring = RingChoice::kOptimal;
    FlowSimJob job(loop, net, cl, spec, rng);
    if (ffa) {
      policy::AssignItem item{CommId{0}, AppId{1}, &gpus, &job.strategy(), false};
      net::Routing routing(cl.topology());
      auto routes = policy::assign_flows({item}, cl, routing);
      job.set_routes(routes[0]);
    }
    job.start({});
    loop.run();
    return job.avg_allreduce_time();
  };
  EXPECT_LE(run(true), run(false) * 1.001);
}

}  // namespace
}  // namespace mccs::workload

namespace mccs::workload {
namespace {

TEST(TrainingJobTest, PipelineParallelJobCompletes) {
  svc::Fabric fabric{cluster::make_testbed()};
  TrainingModelSpec m = gpt_pipeline_parallel();
  m.pp_activation_bytes = 1_MB;
  m.forward_compute = millis(8);
  m.backward_compute = millis(16);
  m.h2d_bytes_per_iter = 0;
  m.input_stall = 0;
  // 4 stages across 4 hosts.
  TrainingJob job(fabric, AppId{1}, {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}}, m,
                  {.iterations = 4});
  bool done = false;
  job.start([&](Time) { done = true; });
  fabric.loop().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(job.iteration_end_times().size(), 4u);
}

TEST(TrainingJobTest, PipelineMicrobatchingOverlapsTransfers) {
  // With more microbatches the per-stage compute is sliced finer and the
  // P2P transfers overlap compute: iteration time must not grow, and with a
  // communication-heavy profile it should shrink.
  auto run_with = [&](int microbatches) {
    svc::Fabric fabric{cluster::make_testbed()};
    TrainingModelSpec m = gpt_pipeline_parallel();
    m.pp_microbatches = microbatches;
    m.pp_activation_bytes = 16_MB;  // comm-heavy
    m.forward_compute = millis(8);
    m.backward_compute = millis(16);
    m.h2d_bytes_per_iter = 0;
    m.input_stall = 0;
    TrainingJob job(fabric, AppId{1}, {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}},
                    m, {.iterations = 3});
    job.start();
    fabric.loop().run();
    const auto& ends = job.iteration_end_times();
    return ends[2] - ends[1];
  };
  EXPECT_LT(run_with(4), run_with(1) * 1.02);
}

TEST(TrainingJobTest, ExpertParallelJobCompletes) {
  svc::Fabric fabric{cluster::make_testbed()};
  TrainingModelSpec m = moe_expert_parallel();
  m.layers = 3;
  m.moe_tokens_per_peer_bytes = 512_KB;
  m.forward_compute = millis(6);
  m.backward_compute = millis(12);
  m.h2d_bytes_per_iter = 0;
  m.input_stall = 0;
  TrainingJob job(fabric, AppId{1}, {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}}, m,
                  {.iterations = 3});
  bool done = false;
  job.start([&](Time) { done = true; });
  fabric.loop().run();
  ASSERT_TRUE(done);
  // AllToAll traffic shows up in the provider trace.
  const auto trace = fabric.trace(AppId{1});
  int a2a = 0;
  for (const auto& r : trace) {
    if (r.kind == coll::CollectiveKind::kAllToAll) ++a2a;
  }
  // 2 AllToAlls per layer per pass, 3 layers, 2 passes, 3 iters, 4 ranks.
  EXPECT_EQ(a2a, 2 * 3 * 2 * 3 * 4);
}

TEST(TrainingJobTest, ExpertParallelBenefitsFromFlowAssignment) {
  // MoE AllToAll crosses racks densely; FFA-assigned routes beat unlucky
  // ECMP placements on average across seeds.
  auto run_scheme = [&](bool ffa, std::uint64_t seed) {
    svc::Fabric::Options options;
    options.seed = seed;
    options.config.move_data = false;
    options.gpu_config.materialize_memory = false;
    svc::Fabric fabric{cluster::make_testbed(), options};
    policy::Controller controller(fabric);
    controller.set_flow_policy(ffa ? policy::Controller::FlowPolicy::kFfa
                                   : policy::Controller::FlowPolicy::kEcmp);
    controller.attach();
    TrainingModelSpec m = moe_expert_parallel();
    m.layers = 2;
    m.moe_tokens_per_peer_bytes = 8_MB;
    m.forward_compute = millis(2);
    m.backward_compute = millis(4);
    m.h2d_bytes_per_iter = 0;
    m.input_stall = 0;
    TrainingJob job(fabric, AppId{1}, {GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}},
                    m, {.iterations = 3});
    Time jct = 0;
    job.start([&](Time t) { jct = t; });
    fabric.loop().run();
    return jct;
  };
  double ecmp = 0, ffa = 0;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    ecmp += run_scheme(false, s);
    ffa += run_scheme(true, s);
  }
  EXPECT_LE(ffa, ecmp * 1.001);
}

}  // namespace
}  // namespace mccs::workload
