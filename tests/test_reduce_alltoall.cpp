// End-to-end tests of the Reduce (chain and tree) and AllToAll collectives.

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "cluster/cluster.h"
#include "helpers.h"
#include "mccs/fabric.h"

namespace mccs {
namespace {

using coll::DataType;
using coll::ReduceOp;
using svc::Fabric;
using test::await;
using test::create_comm;
using test::make_ranks;

void run_reduce_and_check(Fabric& fabric, AppId app,
                          const std::vector<GpuId>& gpus, std::size_t count,
                          int root) {
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const int n = static_cast<int>(gpus.size());
  std::vector<gpu::DevicePtr> send(gpus.size()), recv(gpus.size());
  std::vector<float> expected(count, 0.0f);
  std::vector<std::vector<float>> inputs(gpus.size());
  for (int r = 0; r < n; ++r) {
    send[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    recv[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, send[static_cast<std::size_t>(r)], count, r);
    auto s = fabric.gpus().typed<float>(send[static_cast<std::size_t>(r)], count);
    inputs[static_cast<std::size_t>(r)].assign(s.begin(), s.end());
    for (std::size_t i = 0; i < count; ++i) expected[i] += s[i];
  }
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->reduce(comm, send[static_cast<std::size_t>(r)],
                    recv[static_cast<std::size_t>(r)], count, DataType::kFloat32,
                    ReduceOp::kSum, root, *rk.stream,
                    [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));

  // Root holds the reduction; everyone's send buffer is untouched.
  auto out = fabric.gpus().typed<float>(recv[static_cast<std::size_t>(root)], count);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_FLOAT_EQ(out[i], expected[i]) << "root elem " << i;
  }
  for (int r = 0; r < n; ++r) {
    auto s = fabric.gpus().typed<float>(send[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(s[i], inputs[static_cast<std::size_t>(r)][i])
          << "rank " << r << "'s input was clobbered";
    }
  }
}

// gtest names each case by the raw bytes of its parameter, so the struct
// must have no padding: uninitialised padding would rename the cases on
// every run. `tree` is therefore an int (0 = ring, 1 = tree), not a bool.
struct ReduceCase {
  int nranks;
  int root;
  int tree;
};
static_assert(std::has_unique_object_representations_v<ReduceCase>);

class ReduceP : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(ReduceP, ReduceToRootIsExact) {
  const auto [nranks, root, tree] = GetParam();
  Fabric fabric{cluster::make_testbed()};
  if (tree) {
    fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
      svc::CommStrategy s = svc::nccl_default_strategy(info.gpus, fabric.cluster());
      s.algorithm = coll::Algorithm::kTree;
      s.tree_pipeline_chunks = 3;
      return s;
    });
  }
  std::vector<GpuId> gpus;
  for (int r = 0; r < nranks; ++r) gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
  run_reduce_and_check(fabric, AppId{1}, gpus, 517, root);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ReduceP,
    ::testing::Values(ReduceCase{2, 0, 0}, ReduceCase{2, 1, 0},
                      ReduceCase{4, 0, 0}, ReduceCase{4, 2, 0},
                      ReduceCase{8, 5, 0}, ReduceCase{2, 1, 1},
                      ReduceCase{4, 3, 1}, ReduceCase{8, 0, 1},
                      ReduceCase{7, 4, 1}));

TEST(ReduceCollective, MaxOperatorAtRoot) {
  Fabric fabric{cluster::make_testbed()};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}};
  const CommId comm = create_comm(fabric, AppId{1}, gpus);
  auto ranks = make_ranks(fabric, AppId{1}, gpus);
  const std::size_t count = 33;
  std::vector<gpu::DevicePtr> send(3), recv(3);
  for (int r = 0; r < 3; ++r) {
    send[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    recv[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    auto s = fabric.gpus().typed<float>(send[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) {
      s[i] = static_cast<float>((r * 7 + static_cast<int>(i) * 3) % 11);
    }
  }
  int remaining = 3;
  for (int r = 0; r < 3; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->reduce(comm, send[static_cast<std::size_t>(r)],
                    recv[static_cast<std::size_t>(r)], count, DataType::kFloat32,
                    ReduceOp::kMax, 1, *rk.stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  auto out = fabric.gpus().typed<float>(recv[1], count);
  for (std::size_t i = 0; i < count; ++i) {
    float want = 0;
    for (int r = 0; r < 3; ++r) {
      auto s = fabric.gpus().typed<float>(send[static_cast<std::size_t>(r)], count);
      want = std::max(want, s[i]);
    }
    ASSERT_FLOAT_EQ(out[i], want);
  }
}

class AllToAllP : public ::testing::TestWithParam<int> {};

TEST_P(AllToAllP, EveryBlockLandsAtItsDestination) {
  const int n = GetParam();
  Fabric fabric{cluster::make_testbed()};
  AppId app{1};
  std::vector<GpuId> gpus;
  for (int r = 0; r < n; ++r) gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);

  const std::size_t count = 51;  // per peer, odd to exercise striping
  std::vector<gpu::DevicePtr> send(gpus.size()), recv(gpus.size());
  for (int r = 0; r < n; ++r) {
    send[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)].shim->alloc(
        count * static_cast<std::size_t>(n) * sizeof(float));
    recv[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)].shim->alloc(
        count * static_cast<std::size_t>(n) * sizeof(float));
    auto s = fabric.gpus().typed<float>(send[static_cast<std::size_t>(r)],
                                        count * static_cast<std::size_t>(n));
    for (int peer = 0; peer < n; ++peer) {
      for (std::size_t i = 0; i < count; ++i) {
        // Unique value per (source, destination, element).
        s[static_cast<std::size_t>(peer) * count + i] =
            static_cast<float>(r * 10000 + peer * 100 + static_cast<int>(i));
      }
    }
  }
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->all_to_all(comm, send[static_cast<std::size_t>(r)],
                        recv[static_cast<std::size_t>(r)], count,
                        DataType::kFloat32, *rk.stream,
                        [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(recv[static_cast<std::size_t>(r)],
                                          count * static_cast<std::size_t>(n));
    for (int src = 0; src < n; ++src) {
      for (std::size_t i = 0; i < count; ++i) {
        const float want =
            static_cast<float>(src * 10000 + r * 100 + static_cast<int>(i));
        ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(src) * count + i], want)
            << "rank " << r << " block from " << src << " elem " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllToAllP, ::testing::Values(2, 3, 4, 8));

TEST(AllToAll, InPlaceIsRejected) {
  Fabric fabric{cluster::make_testbed()};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  const CommId comm = create_comm(fabric, AppId{1}, gpus);
  svc::Shim& shim = fabric.connect(AppId{1}, GpuId{0});
  gpu::Stream& stream = shim.create_app_stream();
  gpu::DevicePtr buf = shim.alloc(2 * 16 * sizeof(float));
  EXPECT_THROW(shim.all_to_all(comm, buf, buf, 16, DataType::kFloat32, stream),
               ContractViolation);
}

TEST(ReduceCollective, TraceRecordsReduceKind) {
  Fabric fabric{cluster::make_testbed()};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}};
  run_reduce_and_check(fabric, AppId{1}, gpus, 64, 0);
  const auto trace = fabric.trace(AppId{1});
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front().kind, coll::CollectiveKind::kReduce);
  EXPECT_EQ(trace.front().bytes, 64 * sizeof(float));
}

}  // namespace
}  // namespace mccs

namespace mccs {
namespace {

struct StarCase {
  int nranks;
  int root;
};

class GatherScatterP : public ::testing::TestWithParam<StarCase> {};

TEST_P(GatherScatterP, GatherCollectsEveryBlockAtRoot) {
  const auto [nranks, root] = GetParam();
  Fabric fabric{cluster::make_testbed()};
  std::vector<GpuId> gpus;
  for (int r = 0; r < nranks; ++r) gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
  const CommId comm = create_comm(fabric, AppId{1}, gpus);
  auto ranks = make_ranks(fabric, AppId{1}, gpus);
  const std::size_t count = 73;
  std::vector<gpu::DevicePtr> send(gpus.size());
  gpu::DevicePtr root_recv =
      ranks[static_cast<std::size_t>(root)].shim->alloc(
          count * static_cast<std::size_t>(nranks) * sizeof(float));
  gpu::DevicePtr other_recv =
      ranks[0].shim->alloc(count * sizeof(float));  // non-root recv unused
  int remaining = nranks;
  for (int r = 0; r < nranks; ++r) {
    send[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, send[static_cast<std::size_t>(r)], count, r);
  }
  for (int r = 0; r < nranks; ++r) {
    gpu::DevicePtr recv = r == root ? root_recv : other_recv;
    if (r != root && r != 0) recv = send[static_cast<std::size_t>(r)];  // ignored
    ranks[static_cast<std::size_t>(r)].shim->gather(
        comm, send[static_cast<std::size_t>(r)], recv, count,
        coll::DataType::kFloat32, root, *ranks[static_cast<std::size_t>(r)].stream,
        [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  for (int src = 0; src < nranks; ++src) {
    auto in = fabric.gpus().typed<float>(send[static_cast<std::size_t>(src)], count);
    auto out = fabric.gpus().typed<float>(
        root_recv, count * static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(src) * count + i], in[i])
          << "block " << src << " elem " << i;
    }
  }
}

TEST_P(GatherScatterP, ScatterDeliversEachBlockToItsRank) {
  const auto [nranks, root] = GetParam();
  Fabric fabric{cluster::make_testbed()};
  std::vector<GpuId> gpus;
  for (int r = 0; r < nranks; ++r) gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
  const CommId comm = create_comm(fabric, AppId{1}, gpus);
  auto ranks = make_ranks(fabric, AppId{1}, gpus);
  const std::size_t count = 61;
  gpu::DevicePtr root_send = ranks[static_cast<std::size_t>(root)].shim->alloc(
      count * static_cast<std::size_t>(nranks) * sizeof(float));
  {
    auto s = fabric.gpus().typed<float>(
        root_send, count * static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<float>(i * 3 + 1);
  }
  std::vector<gpu::DevicePtr> recv(gpus.size());
  int remaining = nranks;
  for (int r = 0; r < nranks; ++r) {
    recv[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    gpu::DevicePtr send = r == root ? root_send : recv[static_cast<std::size_t>(r)];
    ranks[static_cast<std::size_t>(r)].shim->scatter(
        comm, send, recv[static_cast<std::size_t>(r)], count,
        coll::DataType::kFloat32, root, *ranks[static_cast<std::size_t>(r)].stream,
        [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));
  auto in = fabric.gpus().typed<float>(root_send,
                                       count * static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto out = fabric.gpus().typed<float>(recv[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], in[static_cast<std::size_t>(r) * count + i])
          << "rank " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, GatherScatterP,
                         ::testing::Values(StarCase{2, 0}, StarCase{3, 1},
                                           StarCase{4, 2}, StarCase{8, 5}));

}  // namespace
}  // namespace mccs
