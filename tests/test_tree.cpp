// Tests of the binary-tree collective schedules (§5 extension) — both the
// abstract properties of the compiled kTree schedules and end-to-end
// numerical correctness through the MCCS service with a tree strategy
// installed.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <type_traits>

#include "cluster/cluster.h"
#include "collectives/compiler.h"
#include "helpers.h"
#include "mccs/fabric.h"
#include "schedule_ledger.h"

namespace mccs {
namespace {

using coll::Algorithm;
using coll::CollectiveKind;
using coll::CommStep;
using coll::RingOrder;

// --- schedule-level properties ---------------------------------------------------

/// Compile a kTree collective for every rank and execute it over contribution
/// ledgers (schedule_ledger.h).
std::vector<test::Ledger> run_tree(int n, CollectiveKind kind, int root,
                                   std::size_t chunks) {
  const auto scheds = test::schedules_of(test::compile_all(
      kind, Algorithm::kTree, RingOrder::identity(n), root, chunks));
  // Tree hops never move data between chunks: every send lands in the same
  // chunk index at the receiver's matching recv.
  for (int r = 0; r < n; ++r) {
    for (const CommStep& st : scheds[static_cast<std::size_t>(r)].steps) {
      if (!st.has_send()) continue;
      for (const CommStep& ps :
           scheds[static_cast<std::size_t>(st.send_to)].steps) {
        if (ps.has_recv() && ps.recv_tag == st.send_tag) {
          EXPECT_EQ(ps.recv_chunk, st.send_chunk);
          break;
        }
      }
    }
  }
  return test::run_schedules(scheds, test::initial_state(kind, n, root, chunks));
}

// gtest names each case by the raw bytes of its parameter, so the struct
// must have no padding: uninitialised padding would rename the cases on
// every run. `n` is therefore as wide as `chunks`.
struct TreeCase {
  std::int64_t n;
  std::size_t chunks;
};
static_assert(std::has_unique_object_representations_v<TreeCase>);

class TreeScheduleP : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeScheduleP, AllReduceSumsEveryContributionExactlyOnce) {
  const int n = static_cast<int>(GetParam().n);
  const std::size_t chunks = GetParam().chunks;
  auto state = run_tree(n, CollectiveKind::kAllReduce, 0, chunks);
  for (int r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < chunks; ++c) {
      for (int who = 0; who < n; ++who) {
        ASSERT_EQ(state[static_cast<std::size_t>(r)][c][who], 1)
            << "rank " << r << " chunk " << c << " contributor " << who;
      }
    }
  }
}

TEST_P(TreeScheduleP, BroadcastDeliversRootEverywhere) {
  const int n = static_cast<int>(GetParam().n);
  const std::size_t chunks = GetParam().chunks;
  const int root = n / 3;
  auto state = run_tree(n, CollectiveKind::kBroadcast, root, chunks);
  for (int r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < chunks; ++c) {
      ASSERT_EQ(state[static_cast<std::size_t>(r)][c][root], 1)
          << "rank " << r << " chunk " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeScheduleP,
                         ::testing::Values(TreeCase{2, 1}, TreeCase{3, 2},
                                           TreeCase{4, 4}, TreeCase{5, 3},
                                           TreeCase{8, 8}, TreeCase{16, 4},
                                           TreeCase{17, 5}));

TEST(TreeSchedule, DepthIsLogarithmic) {
  // A leaf's step count is O(chunks * log n), not O(chunks * n).
  const auto compiled = test::compile_all(CollectiveKind::kAllReduce,
                                          Algorithm::kTree,
                                          RingOrder::identity(64), 0, 4);
  EXPECT_LT(compiled[63].schedule.steps.size(), 4u * 2 * 8);
}

TEST(TreeSchedule, EdgesCoverEveryNonRootOnce) {
  // The edges a compiled tree Broadcast sends on, and the ones tree_edges
  // advertises for it, are both the n-1 downward edges.
  const int n = 9;
  const int root = 2;
  const auto compiled = test::compile_all(CollectiveKind::kBroadcast,
                                          Algorithm::kTree,
                                          RingOrder::identity(n), root, 3);
  std::set<std::pair<int, int>> sent;
  for (int r = 0; r < n; ++r) {
    for (const CommStep& st : compiled[static_cast<std::size_t>(r)].schedule.steps) {
      if (st.has_send()) sent.insert({r, st.send_to});
    }
  }
  const auto edges = coll::tree_edges(n, root, CollectiveKind::kBroadcast);
  EXPECT_EQ(edges.size(), 8u);  // n-1 downward edges
  EXPECT_EQ(sent, (std::set<std::pair<int, int>>(edges.begin(), edges.end())));
  std::set<int> receivers;
  for (auto [src, dst] : sent) receivers.insert(dst);
  EXPECT_EQ(receivers.size(), 8u);
  EXPECT_EQ(receivers.count(2), 0u);  // root receives nothing
}

// --- end-to-end through the MCCS service -----------------------------------------

svc::CommStrategy tree_strategy(const std::vector<GpuId>& gpus,
                                const cluster::Cluster& cl,
                                std::size_t chunks) {
  svc::CommStrategy s = svc::nccl_default_strategy(gpus, cl);
  s.algorithm = coll::Algorithm::kTree;
  s.tree_pipeline_chunks = chunks;
  return s;
}

class TreeServiceP : public ::testing::TestWithParam<int> {};

TEST_P(TreeServiceP, AllReduceNumericallyCorrect) {
  const int n = GetParam();
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return tree_strategy(info.gpus, fabric.cluster(), 4);
  });
  AppId app{1};
  std::vector<GpuId> gpus;
  for (int r = 0; r < n; ++r) gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 999;  // not divisible by chunks or channels
  std::vector<gpu::DevicePtr> buf(gpus.size());
  std::vector<float> expected(count, 0.0f);
  for (int r = 0; r < n; ++r) {
    buf[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf[static_cast<std::size_t>(r)], count, r);
    auto s = fabric.gpus().typed<float>(buf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) expected[i] += s[i];
  }
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->all_reduce(comm, buf[static_cast<std::size_t>(r)],
                        buf[static_cast<std::size_t>(r)], count,
                        coll::DataType::kFloat32, coll::ReduceOp::kSum,
                        *rk.stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(buf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], expected[i]) << "rank " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeServiceP, ::testing::Values(2, 3, 5, 8));

TEST(TreeService, BroadcastFromNonZeroRoot) {
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return tree_strategy(info.gpus, fabric.cluster(), 3);
  });
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 500;
  const int root = 3;
  std::vector<gpu::DevicePtr> buf(4);
  for (int r = 0; r < 4; ++r) {
    buf[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf[static_cast<std::size_t>(r)], count, r);
  }
  std::vector<float> root_data;
  {
    auto s = fabric.gpus().typed<float>(buf[root], count);
    root_data.assign(s.begin(), s.end());
  }
  int remaining = 4;
  for (int r = 0; r < 4; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->broadcast(comm, buf[static_cast<std::size_t>(r)],
                       buf[static_cast<std::size_t>(r)], count,
                       coll::DataType::kFloat32, root, *rk.stream,
                       [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < 4; ++r) {
    auto out = fabric.gpus().typed<float>(buf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], root_data[i]);
  }
}

TEST(TreeService, AllGatherFallsBackToRing) {
  // Tree strategies execute AllGather on rings; the result must be correct.
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return tree_strategy(info.gpus, fabric.cluster(), 4);
  });
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}};
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 64;
  std::vector<gpu::DevicePtr> send(3), recv(3);
  int remaining = 3;
  for (int r = 0; r < 3; ++r) {
    send[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    recv[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(3 * count * sizeof(float));
    test::fill_pattern<float>(fabric, send[static_cast<std::size_t>(r)], count, r);
  }
  for (int r = 0; r < 3; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->all_gather(comm, send[static_cast<std::size_t>(r)],
                        recv[static_cast<std::size_t>(r)], count,
                        coll::DataType::kFloat32, *rk.stream,
                        [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < 3; ++r) {
    auto out = fabric.gpus().typed<float>(recv[static_cast<std::size_t>(r)], 3 * count);
    for (int src = 0; src < 3; ++src) {
      auto in = fabric.gpus().typed<float>(send[static_cast<std::size_t>(src)], count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(src) * count + i], in[i]);
      }
    }
  }
}

}  // namespace
}  // namespace mccs
