#include "collectives/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "collectives/compiler.h"
#include "collectives/types.h"
#include "schedule_ledger.h"

namespace mccs::coll {
namespace {

// --- RingOrder ----------------------------------------------------------------

TEST(RingOrder, IdentityMapsPositionsToRanks) {
  auto o = RingOrder::identity(4);
  for (int p = 0; p < 4; ++p) EXPECT_EQ(o.rank_at(p), p);
  EXPECT_EQ(o.rank_at(4), 0);   // wraps
  EXPECT_EQ(o.rank_at(-1), 3);  // wraps backwards
}

TEST(RingOrder, PositionOfInvertsRankAt) {
  RingOrder o({2, 0, 3, 1});
  for (int p = 0; p < 4; ++p) EXPECT_EQ(o.position_of(o.rank_at(p)), p);
}

TEST(RingOrder, NextAndPrevFollowTheRing) {
  RingOrder o({2, 0, 3, 1});
  EXPECT_EQ(o.next_rank(2), 0);
  EXPECT_EQ(o.next_rank(1), 2);  // wrap
  EXPECT_EQ(o.prev_rank(2), 1);
}

TEST(RingOrder, ReversedReversesTraversal) {
  RingOrder o({2, 0, 3, 1});
  auto r = o.reversed();
  EXPECT_EQ(r.next_rank(0), 2);
  EXPECT_EQ(o.prev_rank(0), 2);
}

TEST(RingOrder, RejectsNonPermutations) {
  EXPECT_THROW(RingOrder({0, 0, 1}), mccs::ContractViolation);
  EXPECT_THROW(RingOrder({0, 1, 5}), mccs::ContractViolation);
}

// --- chunk ranges ----------------------------------------------------------------

TEST(ChunkRange, PartitionsExactlyWithoutOverlap) {
  for (std::size_t total : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
    for (std::size_t n : {1ul, 3ul, 4ul, 8ul}) {
      std::size_t covered = 0;
      for (std::size_t c = 0; c < n; ++c) {
        const auto r = chunk_range(total, n, c);
        EXPECT_EQ(r.begin_elem, covered);
        covered += r.count_elem;
      }
      EXPECT_EQ(covered, total);
    }
  }
}

// --- schedule simulation ------------------------------------------------------------
// Execute compiled ring schedules abstractly on per-rank chunk ledgers
// (schedule_ledger.h) to prove data correctness properties independent of
// the service implementation. state[rank][chunk] maps each input rank to the
// number of times its contribution is held there.

std::vector<test::Ledger> run_ring(CollectiveKind kind,
                                   const std::vector<int>& order_vec,
                                   int root = 0) {
  const int n = static_cast<int>(order_vec.size());
  const auto scheds = test::schedules_of(test::compile_all(
      kind, Algorithm::kRing, RingOrder(order_vec), root, 8));
  return test::run_schedules(
      scheds, test::initial_state(kind, n, root, static_cast<std::size_t>(n)));
}

class RingScheduleP : public ::testing::TestWithParam<int> {};

TEST_P(RingScheduleP, AllReduceEveryRankSumsEveryInputExactlyOnce) {
  const int n = GetParam();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  auto state = run_ring(CollectiveKind::kAllReduce, order);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      for (int who = 0; who < n; ++who) {
        EXPECT_EQ(state[r][c].at(who), 1)
            << "rank " << r << " chunk " << c << " contributor " << who;
      }
    }
  }
}

TEST_P(RingScheduleP, AllReduceCorrectUnderArbitraryRingOrder) {
  const int n = GetParam();
  // A rotated+reversed permutation exercises non-identity orders.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::rotate(order.begin(), order.begin() + 1, order.end());
  std::reverse(order.begin() + 1, order.end());
  auto state = run_ring(CollectiveKind::kAllReduce, order);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      for (int who = 0; who < n; ++who)
        EXPECT_EQ(state[r][c].at(who), 1);
}

TEST_P(RingScheduleP, AllGatherEveryRankHoldsEveryContribution) {
  const int n = GetParam();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::rotate(order.begin(), order.begin() + n / 2, order.end());
  auto state = run_ring(CollectiveKind::kAllGather, order);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      // Buffer chunk c must hold exactly rank c's contribution.
      EXPECT_EQ(state[r][c].count(c), 1u) << "rank " << r << " chunk " << c;
      EXPECT_EQ(state[r][c].at(c), 1);
      for (int who = 0; who < n; ++who) {
        if (who != c) {
          EXPECT_EQ(state[r][c].count(who), 0u);
        }
      }
    }
  }
}

TEST_P(RingScheduleP, ReduceScatterOwnedChunkHasAllContributions) {
  const int n = GetParam();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  auto state = run_ring(CollectiveKind::kReduceScatter, order);
  RingOrder ro(order);
  for (int r = 0; r < n; ++r) {
    const int p = ro.position_of(r);
    const std::size_t owned_pos = reducescatter_owned_chunk(n, p);
    const std::size_t buf = chunk_to_buffer_index(CollectiveKind::kReduceScatter, ro, owned_pos);
    EXPECT_EQ(buf, static_cast<std::size_t>(r)) << "owned chunk must be own rank";
    for (int who = 0; who < n; ++who) {
      EXPECT_EQ(state[r][buf].at(who), 1)
          << "rank " << r << " contributor " << who;
    }
  }
}

TEST_P(RingScheduleP, BroadcastDeliversRootDataEverywhere) {
  const int n = GetParam();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  const int root = n / 2;
  auto state = run_ring(CollectiveKind::kBroadcast, order, root);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(state[r][c].at(root), 1) << "rank " << r << " chunk " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingScheduleP, ::testing::Values(2, 3, 4, 5, 8, 16));

// --- step counts ----------------------------------------------------------------
// Counted on compile_collective's ring output (identity order: rank ==
// position).

CompiledSchedule compiled_ring(CollectiveKind kind, int n, int rank) {
  return test::compile_all(kind, Algorithm::kRing, RingOrder::identity(n), 0,
                           8)[static_cast<std::size_t>(rank)];
}

TEST(RingSchedules, AllReduceHasTwoNMinusTwoSteps) {
  EXPECT_EQ(compiled_ring(CollectiveKind::kAllReduce, 8, 3).schedule.steps.size(),
            14u);
}
TEST(RingSchedules, AllGatherHasNMinusOneSteps) {
  EXPECT_EQ(compiled_ring(CollectiveKind::kAllGather, 8, 3).schedule.steps.size(),
            7u);
}
TEST(RingSchedules, ReduceScatterStepsReduce) {
  const auto rs = compiled_ring(CollectiveKind::kReduceScatter, 4, 1);
  for (const auto& s : rs.schedule.steps) EXPECT_TRUE(s.reduce);
}
TEST(RingSchedules, AllGatherStepsCopy) {
  const auto ag = compiled_ring(CollectiveKind::kAllGather, 4, 1);
  for (const auto& s : ag.schedule.steps) EXPECT_FALSE(s.reduce);
}

// --- bandwidth math ----------------------------------------------------------------

TEST(BandwidthMath, BusBandwidthFactorsMatchNcclTests) {
  EXPECT_DOUBLE_EQ(bus_bandwidth_factor(CollectiveKind::kAllReduce, 8), 2.0 * 7 / 8);
  EXPECT_DOUBLE_EQ(bus_bandwidth_factor(CollectiveKind::kAllGather, 8), 7.0 / 8);
  EXPECT_DOUBLE_EQ(bus_bandwidth_factor(CollectiveKind::kReduceScatter, 4), 3.0 / 4);
  EXPECT_DOUBLE_EQ(bus_bandwidth_factor(CollectiveKind::kBroadcast, 4), 1.0);
}

TEST(BandwidthMath, AlgorithmBandwidthIsSizeOverTime) {
  EXPECT_DOUBLE_EQ(algorithm_bandwidth(1000, 2.0), 500.0);
}

TEST(BandwidthMath, EdgeVolumes) {
  EXPECT_DOUBLE_EQ(allreduce_edge_volume(4, 1000), 2.0 * 3 / 4 * 1000);
  EXPECT_DOUBLE_EQ(allgather_edge_volume(4, 1000), 3.0 / 4 * 1000);
  EXPECT_DOUBLE_EQ(broadcast_edge_volume(4, 1000), 1000.0);
}

// --- reduce_bytes ----------------------------------------------------------------

TEST(ReduceBytes, SumFloats) {
  std::vector<float> a{1, 2, 3}, b{10, 20, 30};
  reduce_bytes(std::as_writable_bytes(std::span<float>(a)),
               std::as_bytes(std::span<const float>(b)), DataType::kFloat32,
               ReduceOp::kSum);
  EXPECT_EQ(a, (std::vector<float>{11, 22, 33}));
}

TEST(ReduceBytes, MinMaxProdInts) {
  std::vector<std::int32_t> a{5, -1, 7};
  std::vector<std::int32_t> b{3, 4, 7};
  auto A = [&] { return std::as_writable_bytes(std::span<std::int32_t>(a)); };
  auto B = [&] { return std::as_bytes(std::span<const std::int32_t>(b)); };
  reduce_bytes(A(), B(), DataType::kInt32, ReduceOp::kMin);
  EXPECT_EQ(a, (std::vector<std::int32_t>{3, -1, 7}));
  reduce_bytes(A(), B(), DataType::kInt32, ReduceOp::kMax);
  EXPECT_EQ(a, (std::vector<std::int32_t>{3, 4, 7}));
  reduce_bytes(A(), B(), DataType::kInt32, ReduceOp::kProd);
  EXPECT_EQ(a, (std::vector<std::int32_t>{9, 16, 49}));
}

TEST(ReduceBytes, SizeMismatchThrows) {
  std::vector<float> a{1, 2}, b{1, 2, 3};
  EXPECT_THROW(reduce_bytes(std::as_writable_bytes(std::span<float>(a)),
                            std::as_bytes(std::span<const float>(b)),
                            DataType::kFloat32, ReduceOp::kSum),
               mccs::ContractViolation);
}

}  // namespace
}  // namespace mccs::coll
