#pragma once
// Collective plan compiler: a small IR and three passes that lower any
// (CollectiveKind, Algorithm) pair into the per-rank ChannelSchedule the
// proxy engine executes (the GC3 / HiCCL structure: compile the collective
// once, execute the plan many times — arXiv:2201.11840 / 2408.05962).
//
// Passes, in order:
//
//  1. DECOMPOSITION — rewrite the collective as a list of phases over a
//     shared chunked buffer: AllReduce becomes ReduceScatter + AllGather
//     (ring, pairwise) or Reduce + Broadcast (tree, double binary tree);
//     Gather/Scatter lower as the copy-duals of Reduce/Broadcast over a
//     root star. Each phase gets a disjoint tag base so the concatenated
//     schedule keeps the one-slot-per-tag invariant build_coll_plan checks.
//
//  2. HIERARCHY — bind the phase structure to the topology. Ring phases run
//     over the strategy's RingOrder, which the locality policy builds as
//     intra-host runs chained host to host (intra-host chunked ring, one
//     cross-host flow per adjacent host pair); mesh phases exchange in ring-
//     position space, so with a locality order the early rounds are the
//     same-host neighbours and cross-host traffic spreads over later rounds.
//     The pass also summarises the topology (host count, cross-host edge
//     count) for the cost model and the benches.
//
//  3. LOWERING / ALGORITHM BINDING — emit CommSteps per phase, one
//     emitter per phase shape: ring phases from the positional RingSteps of
//     ring.h, the pipelined chain, rotated complete binary trees, the
//     pairwise mesh and the root star. kRing runs rings (and the chain for
//     Reduce); kTree the rotated binary tree; kDoubleBinaryTree splits the
//     chunk range across two differently-rooted trees; kPairwise exchanges
//     directly over the mesh. This is the only producer of ChannelSchedule.
//     Its emission is pinned by the emission digest in test_compiler.cpp
//     and by the paper-figure goldens (bench/goldens/).
//
// Algorithm choice itself (choose_algorithm) is a separate selection pass
// over the analytic alpha-beta cost model: the controller runs it per
// topology + message size and installs the winner through the Fig.-4
// barrier; the compiler then lowers whatever the strategy says.
//
// Fallback contract (kinds an algorithm cannot express):
//   * AllGather/ReduceScatter under kTree / kDoubleBinaryTree -> ring
//     (their outputs are ring-structured by construction);
//   * Reduce under kDoubleBinaryTree -> single tree (one root wants the
//     full result, so twin roots buy nothing);
//   * AllToAll is always the pairwise mesh; Gather/Scatter always the root
//     star (a non-root relay would need peers' blocks the buffer model
//     gives them no room to hold).
// selectable_algorithms() names the algorithms that change the schedule for
// a kind; the fallbacks make every (kind, algorithm) pair executable.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "collectives/ring.h"
#include "collectives/schedule.h"
#include "collectives/types.h"
#include "common/units.h"

namespace mccs::coll {

/// Decomposition-pass vocabulary: what one phase does...
enum class PhaseOp {
  kReduceScatter,
  kAllGather,
  kReduce,
  kBroadcast,
  kAllToAll,
  kGather,
  kScatter,
};

/// ...and the peer structure it runs over.
enum class PhaseShape {
  kRing,   ///< ring-order neighbour exchange (positional chunks)
  kChain,  ///< pipelined chain along the ring order, terminating at a root
  kTree,   ///< rotated complete binary tree
  kMesh,   ///< direct pairwise exchange, round-robin in position space
  kStar,   ///< root <-> every other rank directly
};

/// One phase of the decomposed collective (the IR node).
struct PhasePlan {
  PhaseOp op = PhaseOp::kAllGather;
  PhaseShape shape = PhaseShape::kRing;
  int root = 0;       ///< rank-space root (trees, chains, stars)
  int tag_base = 0;   ///< first tag this phase may use (disjoint per phase)
  std::size_t chunk_begin = 0;  ///< buffer chunk subset [begin, end)
  std::size_t chunk_end = 0;

  friend bool operator==(const PhasePlan&, const PhasePlan&) = default;
};

/// Everything the compiler needs about one (collective, channel, rank).
struct CompileInput {
  CollectiveKind kind = CollectiveKind::kAllReduce;
  Algorithm algorithm = Algorithm::kRing;
  int nranks = 0;
  int rank = 0;
  int root = 0;
  /// The channel's ring order (hierarchy pass input: the locality policy
  /// encodes the intra-host runs here). Required.
  const RingOrder* order = nullptr;
  /// Pipeline granularity of tree algorithms (CommStrategy setting).
  std::size_t tree_chunks = 8;
  /// Host of every rank, for the hierarchy summary. Optional (empty =>
  /// single-host assumed).
  const std::vector<int>* host_of_rank = nullptr;
};

/// Hierarchy-pass summary of the communicator's topology.
struct HierarchySummary {
  int nhosts = 1;
  int cross_host_ring_edges = 0;  ///< ring-successor edges crossing hosts

  friend bool operator==(const HierarchySummary&, const HierarchySummary&) =
      default;
};

/// Compilation result: the executable schedule plus the IR that produced it.
struct CompiledSchedule {
  ChannelSchedule schedule;
  bool is_ring = false;  ///< positional (ring) execution semantics
  int my_position = 0;   ///< ring position of `rank` (ring mode only)
  std::vector<PhasePlan> phases;  ///< decomposition record
  HierarchySummary hierarchy;
};

/// Run all passes for one (collective, channel, rank).
CompiledSchedule compile_collective(const CompileInput& in);

/// Algorithms that produce a distinct schedule for `kind` (the compiler's
/// search space; the correctness sweep enumerates exactly this).
std::vector<Algorithm> selectable_algorithms(CollectiveKind kind);

/// Edges (src rank -> dst rank) a kTree schedule of `kind` rooted at `root`
/// sends on: parent->child for Broadcast, child->parent for Reduce, both for
/// AllReduce. test_compiler.cpp audits it against compiled schedules.
std::vector<std::pair<int, int>> tree_edges(int nranks, int root,
                                            CollectiveKind kind);

/// The (src rank, dst rank) superset a compiled schedule of `algorithm` can
/// send on over `order`, across all kinds — the edge list flow assignment
/// places demand for. For kRing this enumerates ring successors in position
/// order (identical to the historical assigner loop); kTree matches
/// tree_edges(n, 0, kAllReduce). test_compiler.cpp property-checks that
/// every compiled schedule's send edges are covered.
std::vector<std::pair<int, int>> algorithm_edges(Algorithm algorithm,
                                                 const RingOrder& order);

// --- algorithm-choice pass (analytic alpha-beta cost model) -----------------

/// Model inputs, derivable from ServiceConfig + topology: `alpha` is the
/// per-step latency of one schedule hop (transport overhead + path latency),
/// `beta` the seconds-per-byte of the bottleneck (cross-host) link.
struct CostParams {
  Time alpha = 20e-6;
  double beta = 8e-11;  ///< 1 / (12.5 GB/s)
};

/// Predicted completion time of one collective of `bytes` bytes under
/// `algorithm` (fallbacks included: the cost of the schedule actually run).
Time algorithm_cost(Algorithm algorithm, CollectiveKind kind, int nranks,
                    Bytes bytes, const CostParams& p);

/// argmin of algorithm_cost over selectable_algorithms(kind); ties break to
/// the earlier enum value (kRing first), so the default wins when equal.
Algorithm choose_algorithm(CollectiveKind kind, int nranks, Bytes bytes,
                           const CostParams& p);

/// Fingerprint of the pass pipeline plus every strategy knob (beyond the
/// algorithm itself) that shapes emitted plans. Folded into the plan-cache
/// key next to the algorithm: two strategies that agree on shape but not on
/// fingerprint must never share a cached plan.
std::uint32_t compiler_fingerprint(std::size_t tree_pipeline_chunks);

}  // namespace mccs::coll
