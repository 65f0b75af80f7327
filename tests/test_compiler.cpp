// Tests of the collective plan compiler (collectives/compiler.h).
//
// Coverage, per the compiler's contract:
//  * correctness sweep — every CollectiveKind x every selectable algorithm x
//    nranks 2..17, executed abstractly over contribution ledgers
//    (schedule_ledger.h) and checked against the collective's set-theoretic
//    oracle;
//  * emission digest — every compiled output of the sweep folded into one
//    FNV-1a 64 value pinned to the lowering the paper-figure goldens were
//    captured with, so any change to a step, tag, chunk or phase fails;
//  * tree_edges audit — the advertised flow edges of every tree schedule
//    match the edges the per-rank compiled schedules actually send on, for
//    nranks in [2, 64] and multiple roots (the phantom-reduce-edge bugfix);
//  * edge coverage — every send a compiled schedule performs is inside
//    algorithm_edges(), so flow assignment places demand for all of it;
//  * the algorithm-choice pass (analytic cost model), the hierarchy summary
//    and the compiler fingerprint;
//  * end-to-end numerical correctness through the MCCS service for the two
//    algorithms whose only other checks are schedule-level (double binary
//    tree, pairwise), including a 17-rank communicator and the single-rank
//    short-circuit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "collectives/compiler.h"
#include "helpers.h"
#include "mccs/fabric.h"
#include "mccs/strategy.h"
#include "schedule_ledger.h"

namespace mccs {
namespace {

using coll::Algorithm;
using coll::ChannelSchedule;
using coll::CollectiveKind;
using coll::CommStep;
using coll::CompiledSchedule;
using coll::RingOrder;

using test::compile_all;
using test::initial_state;
using test::Ledger;
using test::run_schedules;

/// The collective's set-theoretic oracle over final ledgers.
void verify_state(CollectiveKind kind, int n, int root, std::size_t chunks,
                  const std::vector<Ledger>& state) {
  auto expect_full = [&](int r, std::size_t c) {
    const auto& chunk = state[static_cast<std::size_t>(r)][c];
    for (int who = 0; who < n; ++who) {
      ASSERT_TRUE(chunk.count(who) && chunk.at(who) == 1)
          << "rank " << r << " chunk " << c << " contributor " << who
          << " count " << (chunk.count(who) ? chunk.at(who) : 0);
    }
  };
  switch (kind) {
    case CollectiveKind::kAllReduce:
      for (int r = 0; r < n; ++r)
        for (std::size_t c = 0; c < chunks; ++c) expect_full(r, c);
      break;
    case CollectiveKind::kReduce:
      for (std::size_t c = 0; c < chunks; ++c) expect_full(root, c);
      break;
    case CollectiveKind::kReduceScatter:
      // Rank r owns buffer block r of the scattered reduction.
      for (int r = 0; r < n; ++r)
        expect_full(r, static_cast<std::size_t>(r));
      break;
    case CollectiveKind::kBroadcast:
      for (int r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < chunks; ++c) {
          const auto& chunk = state[static_cast<std::size_t>(r)][c];
          ASSERT_EQ(chunk.size(), 1u) << "rank " << r << " chunk " << c;
          ASSERT_EQ(chunk.count(root), 1u) << "rank " << r << " chunk " << c;
          ASSERT_EQ(chunk.at(root), 1) << "rank " << r << " chunk " << c;
        }
      }
      break;
    case CollectiveKind::kAllGather:
      for (int r = 0; r < n; ++r) {
        for (std::size_t b = 0; b < chunks; ++b) {
          const auto& chunk = state[static_cast<std::size_t>(r)][b];
          ASSERT_EQ(chunk.size(), 1u) << "rank " << r << " block " << b;
          ASSERT_EQ(chunk.count(static_cast<int>(b)), 1u)
              << "rank " << r << " block " << b;
        }
      }
      break;
    case CollectiveKind::kAllToAll:
      // Block q of rank r ends as block r of rank q (own block stays local).
      for (int r = 0; r < n; ++r) {
        for (int q = 0; q < n; ++q) {
          if (q == r) continue;
          const auto& chunk =
              state[static_cast<std::size_t>(r)][static_cast<std::size_t>(q)];
          ASSERT_EQ(chunk.size(), 1u) << "rank " << r << " block " << q;
          ASSERT_EQ(chunk.count(q * 1000 + r), 1u)
              << "rank " << r << " block " << q;
        }
      }
      break;
    case CollectiveKind::kGather:
      for (int q = 0; q < n; ++q) {
        if (q == root) continue;
        const auto& chunk =
            state[static_cast<std::size_t>(root)][static_cast<std::size_t>(q)];
        ASSERT_EQ(chunk.size(), 1u) << "block " << q;
        ASSERT_EQ(chunk.count(q), 1u) << "block " << q;
      }
      break;
    case CollectiveKind::kScatter:
      for (int q = 0; q < n; ++q) {
        if (q == root) continue;
        const auto& chunk = state[static_cast<std::size_t>(q)][0];
        ASSERT_EQ(chunk.size(), 1u) << "rank " << q;
        ASSERT_EQ(chunk.count(1000 + q), 1u) << "rank " << q;
      }
      break;
  }
}

bool is_rooted(CollectiveKind kind) {
  return kind == CollectiveKind::kBroadcast || kind == CollectiveKind::kReduce ||
         kind == CollectiveKind::kGather || kind == CollectiveKind::kScatter;
}

bool is_fixed_shape(CollectiveKind kind) {
  return kind == CollectiveKind::kAllToAll || kind == CollectiveKind::kGather ||
         kind == CollectiveKind::kScatter;
}

/// A non-trivial ring order (position != rank) that is still a permutation
/// for every n: rotate the identity, then reverse it.
RingOrder scrambled_order(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = (i + 1) % n;
  std::reverse(v.begin(), v.end());
  return RingOrder(std::move(v));
}

// --- correctness sweep: every kind x every selectable algorithm ------------------

class CompiledSweepP : public ::testing::TestWithParam<CollectiveKind> {};

TEST_P(CompiledSweepP, EveryAlgorithmMatchesOracleForRanks2To17) {
  const CollectiveKind kind = GetParam();
  for (int n = 2; n <= 17; ++n) {
    const std::vector<RingOrder> orders = {RingOrder::identity(n),
                                           scrambled_order(n)};
    const std::vector<int> roots =
        is_rooted(kind) ? std::vector<int>{0, n - 1} : std::vector<int>{0};
    for (const Algorithm algo : coll::selectable_algorithms(kind)) {
      for (const RingOrder& order : orders) {
        for (const int root : roots) {
          SCOPED_TRACE(::testing::Message()
                       << coll::to_string(kind) << " algo "
                       << coll::algorithm_name(algo) << " n " << n << " root "
                       << root << " pos0 " << order.rank_at(0));
          const auto compiled = compile_all(kind, algo, order, root, 3);
          // One plan shape per communicator: every rank agrees on chunks.
          const std::size_t chunks = compiled[0].schedule.num_chunks;
          // Flow assignment advertises the algorithm's steady-state edge
          // superset (the root-0 AllReduce trees). Rooted tree collectives
          // at other roots — and the DBT mirror broadcast — use rotated
          // trees whose edges deliberately ride ECMP, so coverage is only
          // asserted where the contract promises it.
          const bool tree_like = algo == Algorithm::kTree ||
                                 algo == Algorithm::kDoubleBinaryTree;
          const bool coverage_checked =
              !is_fixed_shape(kind) &&
              !(is_rooted(kind) && tree_like &&
                (root != 0 || algo == Algorithm::kDoubleBinaryTree));
          std::vector<ChannelSchedule> scheds;
          const auto edges = coll::algorithm_edges(algo, order);
          const std::set<std::pair<int, int>> edge_set(edges.begin(),
                                                       edges.end());
          for (int r = 0; r < n; ++r) {
            const auto& cs = compiled[static_cast<std::size_t>(r)];
            ASSERT_EQ(cs.schedule.num_chunks, chunks) << "rank " << r;
            ASSERT_FALSE(cs.phases.empty()) << "rank " << r;
            // One recv slot per tag (the invariant build_coll_plan enforces).
            std::set<int> tags;
            for (const CommStep& st : cs.schedule.steps) {
              if (st.has_recv()) {
                ASSERT_TRUE(tags.insert(st.recv_tag).second)
                    << "rank " << r << " duplicate recv tag " << st.recv_tag;
              }
              // Flow assignment must place demand for every send edge.
              if (st.has_send() && coverage_checked) {
                ASSERT_TRUE(edge_set.count({r, st.send_to}))
                    << "rank " << r << " sends on unadvertised edge " << r
                    << "->" << st.send_to;
              }
            }
            scheds.push_back(cs.schedule);
          }
          const auto state = run_schedules(
              scheds, initial_state(kind, n, root, chunks),
              kind == CollectiveKind::kAllToAll);
          verify_state(kind, n, root, chunks, state);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CompiledSweepP,
    ::testing::Values(CollectiveKind::kAllReduce, CollectiveKind::kAllGather,
                      CollectiveKind::kReduceScatter,
                      CollectiveKind::kBroadcast, CollectiveKind::kReduce,
                      CollectiveKind::kAllToAll, CollectiveKind::kGather,
                      CollectiveKind::kScatter));

// --- lowering emission ------------------------------------------------------------

void expect_same_schedule(const ChannelSchedule& got,
                          const ChannelSchedule& want) {
  ASSERT_EQ(got.num_chunks, want.num_chunks);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    const CommStep& a = got.steps[i];
    const CommStep& b = want.steps[i];
    ASSERT_EQ(a.index, b.index) << "step " << i;
    ASSERT_EQ(a.send_to, b.send_to) << "step " << i;
    ASSERT_EQ(a.send_chunk, b.send_chunk) << "step " << i;
    ASSERT_EQ(a.send_tag, b.send_tag) << "step " << i;
    ASSERT_EQ(a.recv_from, b.recv_from) << "step " << i;
    ASSERT_EQ(a.recv_chunk, b.recv_chunk) << "step " << i;
    ASSERT_EQ(a.recv_tag, b.recv_tag) << "step " << i;
    ASSERT_EQ(a.reduce, b.reduce) << "step " << i;
  }
}

// Every compiled output of the sweep below, folded into one FNV-1a 64 digest.
// The expected value was captured from the lowering as it stood before the
// hand-written builders were folded into the compiler, so any change to a
// step, a tag, a chunk mapping or a phase record of any (kind, algorithm, n,
// order, root, tree_chunks) combination fails here — a pin that does not
// compare the compiler with a second copy of itself.
TEST(CompilerLowering, EmissionDigestMatchesParent) {
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](auto v) {
    const auto u = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    for (int b = 0; b < 64; b += 8) {
      h = (h ^ ((u >> b) & 0xffu)) * 1099511628211ull;
    }
  };
  const CollectiveKind kinds[] = {
      CollectiveKind::kAllReduce,     CollectiveKind::kAllGather,
      CollectiveKind::kReduceScatter, CollectiveKind::kBroadcast,
      CollectiveKind::kReduce,        CollectiveKind::kAllToAll,
      CollectiveKind::kGather,        CollectiveKind::kScatter};
  std::size_t plans = 0;
  for (const CollectiveKind kind : kinds) {
    for (const Algorithm algo : coll::selectable_algorithms(kind)) {
      for (int n = 2; n <= 17; ++n) {
        for (const RingOrder& order : {RingOrder::identity(n), scrambled_order(n)}) {
          for (const int root : is_rooted(kind) ? std::vector<int>{0, n - 1}
                                                : std::vector<int>{0}) {
            for (const std::size_t kk : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
              for (const CompiledSchedule& cs :
                   compile_all(kind, algo, order, root, kk)) {
                fold(cs.schedule.num_chunks);
                fold(cs.schedule.steps.size());
                for (const CommStep& st : cs.schedule.steps) {
                  fold(st.index);
                  fold(st.send_to);
                  fold(st.send_chunk);
                  fold(st.send_tag);
                  fold(st.recv_from);
                  fold(st.recv_chunk);
                  fold(st.recv_tag);
                  fold(st.reduce);
                }
                fold(cs.is_ring);
                fold(cs.my_position);
                fold(cs.phases.size());
                for (const coll::PhasePlan& ph : cs.phases) {
                  fold(static_cast<int>(ph.op));
                  fold(static_cast<int>(ph.shape));
                  fold(ph.root);
                  fold(ph.tag_base);
                  fold(ph.chunk_begin);
                  fold(ph.chunk_end);
                }
                ++plans;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(plans, 24624u);
  EXPECT_EQ(h, 0xb04127a8adfe1dd5ull) << std::hex << "digest 0x" << h;
}

TEST(CompilerLowering, TreeScheduleIgnoresRingOrder) {
  // Trees operate in rank space: permuting the ring order must not change
  // the emitted schedule (only the flow edges and the hierarchy summary).
  const int n = 7;
  for (int rank = 0; rank < n; ++rank) {
    const auto a = compile_all(CollectiveKind::kAllReduce, Algorithm::kTree,
                               RingOrder::identity(n), 0, 4);
    const auto b = compile_all(CollectiveKind::kAllReduce, Algorithm::kTree,
                               scrambled_order(n), 0, 4);
    expect_same_schedule(a[static_cast<std::size_t>(rank)].schedule,
                         b[static_cast<std::size_t>(rank)].schedule);
  }
}

// --- tree_edges audit (the phantom-reduce-edge bugfix) ---------------------------

TEST(TreeEdgesAudit, AdvertisedEdgesMatchSchedulesForRanks2To64) {
  for (int n = 2; n <= 64; ++n) {
    std::vector<std::pair<CollectiveKind, int>> cases = {
        {CollectiveKind::kAllReduce, 0}};
    for (const int root : std::set<int>{0, 1 % n, n / 2}) {
      cases.emplace_back(CollectiveKind::kBroadcast, root);
      cases.emplace_back(CollectiveKind::kReduce, root);
    }
    for (const auto& [kind, root] : cases) {
      SCOPED_TRACE(::testing::Message() << coll::to_string(kind) << " n " << n
                                        << " root " << root);
      std::set<std::pair<int, int>> sched_edges;
      const auto compiled = compile_all(kind, Algorithm::kTree,
                                        RingOrder::identity(n), root, 2);
      for (int rank = 0; rank < n; ++rank) {
        for (const CommStep& st :
             compiled[static_cast<std::size_t>(rank)].schedule.steps) {
          if (st.has_send()) sched_edges.insert({rank, st.send_to});
        }
      }
      const auto advertised = coll::tree_edges(n, root, kind);
      const std::set<std::pair<int, int>> adv_set(advertised.begin(),
                                                  advertised.end());
      ASSERT_EQ(adv_set.size(), advertised.size()) << "duplicate edges";
      ASSERT_EQ(adv_set, sched_edges);
    }
  }
}

// --- algorithm-choice pass -------------------------------------------------------

TEST(AlgorithmChoice, TreeWinsSmallAllReduceRingWinsLarge) {
  const coll::CostParams p;  // defaults: alpha 20us, beta 8e-11 s/B
  EXPECT_EQ(coll::choose_algorithm(CollectiveKind::kAllReduce, 8, 4 * 1024, p),
            Algorithm::kTree);
  EXPECT_EQ(coll::choose_algorithm(CollectiveKind::kAllReduce, 8,
                                   Bytes{256} << 20, p),
            Algorithm::kRing);
  // The measured win the selection claims: at the small point the tree's
  // modelled time must strictly beat the ring's.
  EXPECT_LT(coll::algorithm_cost(Algorithm::kTree, CollectiveKind::kAllReduce,
                                 8, 4 * 1024, p),
            coll::algorithm_cost(Algorithm::kRing, CollectiveKind::kAllReduce,
                                 8, 4 * 1024, p));
  // One crossover: once the ring wins, larger payloads never flip back.
  bool ring_seen = false;
  for (Bytes b = 1024; b <= (Bytes{1} << 30); b *= 2) {
    const Algorithm a =
        coll::choose_algorithm(CollectiveKind::kAllReduce, 8, b, p);
    if (a == Algorithm::kRing) ring_seen = true;
    if (ring_seen) EXPECT_EQ(a, Algorithm::kRing) << "bytes " << b;
  }
  // AllGather has no latency-optimal variant in the search space: ring always.
  for (Bytes b : {Bytes{1024}, Bytes{1} << 20, Bytes{1} << 28}) {
    EXPECT_EQ(coll::choose_algorithm(CollectiveKind::kAllGather, 8, b, p),
              Algorithm::kRing);
  }
}

TEST(AlgorithmChoice, SearchSpacePerKind) {
  using K = CollectiveKind;
  auto algos = [](K k) { return coll::selectable_algorithms(k); };
  EXPECT_EQ(algos(K::kAllReduce).size(), 4u);
  EXPECT_EQ(algos(K::kBroadcast).size(), 4u);
  EXPECT_EQ(algos(K::kReduce).size(), 3u);
  EXPECT_EQ(algos(K::kAllGather),
            (std::vector<Algorithm>{Algorithm::kRing, Algorithm::kPairwise}));
  EXPECT_EQ(algos(K::kReduceScatter),
            (std::vector<Algorithm>{Algorithm::kRing, Algorithm::kPairwise}));
  EXPECT_EQ(algos(K::kAllToAll), (std::vector<Algorithm>{Algorithm::kRing}));
  EXPECT_EQ(algos(K::kGather), (std::vector<Algorithm>{Algorithm::kRing}));
  EXPECT_EQ(algos(K::kScatter), (std::vector<Algorithm>{Algorithm::kRing}));
  // Every selectable algorithm must be in first position exactly when it is
  // the default (ties break to kRing).
  for (const K k : {K::kAllReduce, K::kAllGather, K::kBroadcast, K::kReduce}) {
    EXPECT_EQ(algos(k).front(), Algorithm::kRing);
  }
}

TEST(CompilerFingerprint, DistinguishesPlanShapingKnobs) {
  EXPECT_EQ(coll::compiler_fingerprint(8), coll::compiler_fingerprint(8));
  EXPECT_NE(coll::compiler_fingerprint(1), coll::compiler_fingerprint(8));
  EXPECT_NE(coll::compiler_fingerprint(3), coll::compiler_fingerprint(4));
}

// --- hierarchy summary -----------------------------------------------------------

TEST(CompilerHierarchy, CountsHostsAndCrossHostRingEdges) {
  const std::vector<int> hosts = {0, 0, 1, 1};
  {
    // Locality order: host runs are contiguous => 2 crossings.
    const auto c = compile_all(CollectiveKind::kAllReduce, Algorithm::kRing,
                               RingOrder::identity(4), 0, 8, &hosts);
    EXPECT_EQ(c[0].hierarchy.nhosts, 2);
    EXPECT_EQ(c[0].hierarchy.cross_host_ring_edges, 2);
  }
  {
    // Host-alternating order 0,2,1,3: every ring hop crosses hosts.
    const RingOrder alt(std::vector<int>{0, 2, 1, 3});
    const auto c = compile_all(CollectiveKind::kAllReduce, Algorithm::kRing,
                               alt, 0, 8, &hosts);
    EXPECT_EQ(c[0].hierarchy.nhosts, 2);
    EXPECT_EQ(c[0].hierarchy.cross_host_ring_edges, 4);
  }
}

// --- end-to-end through the MCCS service -----------------------------------------

svc::CommStrategy algo_strategy(const std::vector<GpuId>& gpus,
                                const cluster::Cluster& cl, Algorithm algo,
                                std::size_t chunks) {
  svc::CommStrategy s = svc::nccl_default_strategy(gpus, cl);
  s.algorithm = algo;
  s.tree_pipeline_chunks = chunks;
  return s;
}

struct ServiceCase {
  Algorithm algo;
  int n;
};

class CompiledServiceP : public ::testing::TestWithParam<ServiceCase> {};

TEST_P(CompiledServiceP, AllReduceNumericallyCorrect) {
  const auto [algo, n] = GetParam();
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric, algo = algo](const svc::CommInfo& info) {
    return algo_strategy(info.gpus, fabric.cluster(), algo, 4);
  });
  AppId app{1};
  std::vector<GpuId> gpus;
  for (int r = 0; r < n; ++r)
    gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 999;  // not divisible by chunks or channels
  std::vector<gpu::DevicePtr> buf(gpus.size());
  std::vector<float> expected(count, 0.0f);
  for (int r = 0; r < n; ++r) {
    buf[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
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

INSTANTIATE_TEST_SUITE_P(
    Sizes, CompiledServiceP,
    ::testing::Values(ServiceCase{Algorithm::kDoubleBinaryTree, 2},
                      ServiceCase{Algorithm::kDoubleBinaryTree, 3},
                      ServiceCase{Algorithm::kDoubleBinaryTree, 5},
                      ServiceCase{Algorithm::kDoubleBinaryTree, 8},
                      ServiceCase{Algorithm::kPairwise, 2},
                      ServiceCase{Algorithm::kPairwise, 3},
                      ServiceCase{Algorithm::kPairwise, 5},
                      ServiceCase{Algorithm::kPairwise, 8}));

TEST(CompiledService, DbtBroadcastFromNonZeroRoot) {
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return algo_strategy(info.gpus, fabric.cluster(),
                         Algorithm::kDoubleBinaryTree, 3);
  });
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6},
                                GpuId{7}};
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 501;
  const int root = 3;
  std::vector<gpu::DevicePtr> buf(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, buf[r], count, static_cast<int>(r));
  }
  std::vector<float> root_data;
  {
    auto s = fabric.gpus().typed<float>(buf[root], count);
    root_data.assign(s.begin(), s.end());
  }
  int remaining = static_cast<int>(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    ranks[r].shim->broadcast(comm, buf[r], buf[r], count,
                             coll::DataType::kFloat32, root, *ranks[r].stream,
                             [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    auto out = fabric.gpus().typed<float>(buf[r], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], root_data[i]) << "rank " << r << " elem " << i;
    }
  }
}

TEST(CompiledService, PairwiseRootedAndScatteredKinds) {
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return algo_strategy(info.gpus, fabric.cluster(), Algorithm::kPairwise, 4);
  });
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const int n = static_cast<int>(gpus.size());
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 96;

  // Reduce to a non-zero root (star reduce).
  std::vector<gpu::DevicePtr> rbuf(gpus.size()), rout(gpus.size());
  std::vector<float> rsum(count, 0.0f);
  for (int r = 0; r < n; ++r) {
    rbuf[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    rout[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(count * sizeof(float));
    test::fill_pattern<float>(fabric, rbuf[static_cast<std::size_t>(r)], count, r);
    auto s = fabric.gpus().typed<float>(rbuf[static_cast<std::size_t>(r)], count);
    for (std::size_t i = 0; i < count; ++i) rsum[i] += s[i];
  }
  const int root = 2;
  int remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->reduce(comm, rbuf[static_cast<std::size_t>(r)],
                    rout[static_cast<std::size_t>(r)], count,
                    coll::DataType::kFloat32, coll::ReduceOp::kSum, root,
                    *rk.stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  {
    auto out = fabric.gpus().typed<float>(rout[root], count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FLOAT_EQ(out[i], rsum[i]) << "elem " << i;
    }
  }

  // ReduceScatter then AllGather over the pairwise mesh round-trips.
  const std::size_t per = 64;
  std::vector<gpu::DevicePtr> send(gpus.size()), part(gpus.size()),
      full(gpus.size());
  for (int r = 0; r < n; ++r) {
    send[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)]
                                            .shim->alloc(static_cast<std::size_t>(n) *
                                                         per * sizeof(float));
    part[static_cast<std::size_t>(r)] =
        ranks[static_cast<std::size_t>(r)].shim->alloc(per * sizeof(float));
    full[static_cast<std::size_t>(r)] = ranks[static_cast<std::size_t>(r)]
                                            .shim->alloc(static_cast<std::size_t>(n) *
                                                         per * sizeof(float));
    test::fill_pattern<float>(fabric, send[static_cast<std::size_t>(r)],
                              static_cast<std::size_t>(n) * per, 100 + r);
  }
  std::vector<std::vector<float>> expected_parts(
      static_cast<std::size_t>(n), std::vector<float>(per, 0.0f));
  for (int b = 0; b < n; ++b) {
    for (int r = 0; r < n; ++r) {
      auto s = fabric.gpus().typed<float>(send[static_cast<std::size_t>(r)],
                                          static_cast<std::size_t>(n) * per);
      for (std::size_t i = 0; i < per; ++i) {
        expected_parts[static_cast<std::size_t>(b)][i] +=
            s[static_cast<std::size_t>(b) * per + i];
      }
    }
  }
  remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->reduce_scatter(comm, send[static_cast<std::size_t>(r)],
                            part[static_cast<std::size_t>(r)], per,
                            coll::DataType::kFloat32, coll::ReduceOp::kSum,
                            *rk.stream, [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(part[static_cast<std::size_t>(r)], per);
    for (std::size_t i = 0; i < per; ++i) {
      ASSERT_FLOAT_EQ(out[i], expected_parts[static_cast<std::size_t>(r)][i])
          << "rank " << r << " elem " << i;
    }
  }
  remaining = n;
  for (int r = 0; r < n; ++r) {
    auto& rk = ranks[static_cast<std::size_t>(r)];
    rk.shim->all_gather(comm, part[static_cast<std::size_t>(r)],
                        full[static_cast<std::size_t>(r)], per,
                        coll::DataType::kFloat32, *rk.stream,
                        [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(test::await(fabric, remaining));
  for (int r = 0; r < n; ++r) {
    auto out = fabric.gpus().typed<float>(full[static_cast<std::size_t>(r)],
                                          static_cast<std::size_t>(n) * per);
    for (int b = 0; b < n; ++b) {
      for (std::size_t i = 0; i < per; ++i) {
        ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(b) * per + i],
                        expected_parts[static_cast<std::size_t>(b)][i])
            << "rank " << r << " block " << b << " elem " << i;
      }
    }
  }
}

TEST(CompiledService, SeventeenRankAllReduce) {
  // A communicator larger than any single host, on a fabric with 18 GPUs:
  // both compiler-only algorithms must survive a prime, >16 rank count.
  cluster::SpineLeafSpec spec;
  spec.num_spines = 2;
  spec.num_leaves = 3;
  spec.hosts_per_leaf = 2;
  spec.gpus_per_host = 3;
  spec.nics_per_host = 3;
  for (const Algorithm algo :
       {Algorithm::kDoubleBinaryTree, Algorithm::kPairwise}) {
    svc::Fabric fabric{cluster::make_spine_leaf(spec)};
    fabric.set_strategy_provider([&fabric, algo](const svc::CommInfo& info) {
      return algo_strategy(info.gpus, fabric.cluster(), algo, 4);
    });
    AppId app{1};
    std::vector<GpuId> gpus;
    for (int r = 0; r < 17; ++r)
      gpus.push_back(GpuId{static_cast<std::uint32_t>(r)});
    const CommId comm = test::create_comm(fabric, app, gpus);
    auto ranks = test::make_ranks(fabric, app, gpus);
    const std::size_t count = 257;
    std::vector<gpu::DevicePtr> buf(gpus.size());
    std::vector<float> expected(count, 0.0f);
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      buf[r] = ranks[r].shim->alloc(count * sizeof(float));
      test::fill_pattern<float>(fabric, buf[r], count, static_cast<int>(r));
      auto s = fabric.gpus().typed<float>(buf[r], count);
      for (std::size_t i = 0; i < count; ++i) expected[i] += s[i];
    }
    int remaining = static_cast<int>(gpus.size());
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      ranks[r].shim->all_reduce(comm, buf[r], buf[r], count,
                                coll::DataType::kFloat32, coll::ReduceOp::kSum,
                                *ranks[r].stream,
                                [&remaining](Time) { --remaining; });
    }
    ASSERT_TRUE(test::await(fabric, remaining));
    for (std::size_t r = 0; r < gpus.size(); ++r) {
      auto out = fabric.gpus().typed<float>(buf[r], count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_FLOAT_EQ(out[i], expected[i])
            << coll::algorithm_name(algo) << " rank " << r << " elem " << i;
      }
    }
  }
}

TEST(CompiledService, SingleRankShortCircuits) {
  // nranks == 1 never reaches the compiler: the collective is a local copy.
  svc::Fabric fabric{cluster::make_testbed()};
  fabric.set_strategy_provider([&fabric](const svc::CommInfo& info) {
    return algo_strategy(info.gpus, fabric.cluster(), Algorithm::kPairwise, 4);
  });
  AppId app{1};
  const std::vector<GpuId> gpus{GpuId{3}};
  const CommId comm = test::create_comm(fabric, app, gpus);
  auto ranks = test::make_ranks(fabric, app, gpus);
  const std::size_t count = 64;
  auto send = ranks[0].shim->alloc(count * sizeof(float));
  auto recv = ranks[0].shim->alloc(count * sizeof(float));
  test::fill_pattern<float>(fabric, send, count, 9);
  int remaining = 1;
  ranks[0].shim->all_reduce(comm, send, recv, count, coll::DataType::kFloat32,
                            coll::ReduceOp::kSum, *ranks[0].stream,
                            [&remaining](Time) { --remaining; });
  ASSERT_TRUE(test::await(fabric, remaining));
  auto in = fabric.gpus().typed<float>(send, count);
  auto out = fabric.gpus().typed<float>(recv, count);
  for (std::size_t i = 0; i < count; ++i) ASSERT_FLOAT_EQ(out[i], in[i]);
}

}  // namespace
}  // namespace mccs
