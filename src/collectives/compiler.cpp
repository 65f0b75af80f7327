#include "collectives/compiler.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"

namespace mccs::coll {
namespace {

int mod(int x, int n) { return ((x % n) + n) % n; }

// --- tree scaffolding --------------------------------------------------------
// A complete binary tree over ranks rotated so `root` is tree id 0 (node i's
// parent is (i-1)/2), with a `mirror` flag: the normal mapping is
// tid = (rank - root) mod n, the mirrored one tid = (root - rank) mod n. A
// double binary tree pairs a normal and a mirrored tree (or two normal trees
// with different roots) so interior nodes of one are leaves of the other.

struct TreeShape {
  int parent = -1;      ///< tid of parent (-1 at root)
  int child_index = 0;  ///< 0 = left child of parent, 1 = right
  std::vector<int> children;  ///< tids
};

TreeShape tree_shape(int nranks, int tid) {
  TreeShape node;
  if (tid > 0) {
    node.parent = (tid - 1) / 2;
    node.child_index = (tid % 2 == 1) ? 0 : 1;
  }
  for (int c : {2 * tid + 1, 2 * tid + 2}) {
    if (c < nranks) node.children.push_back(c);
  }
  return node;
}

int rank_of_tid(int tid, int root, int n, bool mirror) {
  return mirror ? mod(root - tid, n) : mod(root + tid, n);
}

int tid_of_rank(int rank, int root, int n, bool mirror) {
  return mirror ? mod(root - rank, n) : mod(rank - root, n);
}

// --- phase emitters ----------------------------------------------------------
// Each appends one decomposed phase's CommSteps, numbering from `index` and
// tagging from `tag_base` so phases stay disjoint in tag space (the
// fixed-shape emitters only ever run as a collective's sole phase, so they
// tag from 0).

/// Ring phase from precomputed RingSteps. `buffer_kind` selects the
/// positional-chunk -> buffer-chunk mapping of the PARENT collective (an
/// AllReduce's AllGather phase addresses AllReduce chunks, not AllGather
/// blocks).
void append_ring_phase(ChannelSchedule& sched, int& index,
                       CollectiveKind buffer_kind, const RingOrder& order,
                       int rank, const std::vector<RingStep>& steps,
                       int tag_base) {
  const int pos = order.position_of(rank);
  const int succ = order.rank_at(pos + 1);
  const int pred = order.rank_at(pos - 1);
  for (const RingStep& rs : steps) {
    CommStep st;
    st.index = index++;
    if (rs.has_send()) {
      st.send_to = succ;
      st.send_chunk = chunk_to_buffer_index(buffer_kind, order, rs.send_chunk);
      st.send_tag = tag_base + rs.send_tag;
    }
    if (rs.has_recv()) {
      st.recv_from = pred;
      st.recv_chunk = chunk_to_buffer_index(buffer_kind, order, rs.recv_chunk);
      st.recv_tag = tag_base + rs.recv_tag;
      st.reduce = rs.reduce;
    }
    sched.steps.push_back(st);
  }
}

/// Tree reduce phase over chunks [c0, c1): recv children (reduce), send
/// parent. Tags 2k + child_index, offset by tag_base — chunk-global k keeps
/// two trees over disjoint chunk ranges disjoint in tag space too.
void append_tree_reduce(ChannelSchedule& sched, int& index, int nranks,
                        int rank, int root, bool mirror, std::size_t c0,
                        std::size_t c1, int tag_base) {
  const int tid = tid_of_rank(rank, root, nranks, mirror);
  const TreeShape node = tree_shape(nranks, tid);
  for (std::size_t k = c0; k < c1; ++k) {
    for (std::size_t c = 0; c < node.children.size(); ++c) {
      CommStep st;
      st.index = index++;
      st.recv_from = rank_of_tid(node.children[c], root, nranks, mirror);
      st.recv_chunk = k;
      st.recv_tag = tag_base + 2 * static_cast<int>(k) + static_cast<int>(c);
      st.reduce = true;
      sched.steps.push_back(st);
    }
    if (node.parent >= 0) {
      CommStep st;
      st.index = index++;
      st.send_to = rank_of_tid(node.parent, root, nranks, mirror);
      st.send_chunk = k;
      st.send_tag = tag_base + 2 * static_cast<int>(k) + node.child_index;
      sched.steps.push_back(st);
    }
  }
}

/// Tree broadcast phase over chunks [c0, c1): recv parent, send children.
/// Tags k + tag_base (one tag per chunk; parent->both-children share it,
/// which is legal — tag uniqueness is per receiving schedule).
void append_tree_broadcast(ChannelSchedule& sched, int& index, int nranks,
                           int rank, int root, bool mirror, std::size_t c0,
                           std::size_t c1, int tag_base) {
  const int tid = tid_of_rank(rank, root, nranks, mirror);
  const TreeShape node = tree_shape(nranks, tid);
  for (std::size_t k = c0; k < c1; ++k) {
    if (node.parent >= 0) {
      CommStep st;
      st.index = index++;
      st.recv_from = rank_of_tid(node.parent, root, nranks, mirror);
      st.recv_chunk = k;
      st.recv_tag = tag_base + static_cast<int>(k);
      st.reduce = false;
      sched.steps.push_back(st);
    }
    for (int child : node.children) {
      CommStep st;
      st.index = index++;
      st.send_to = rank_of_tid(child, root, nranks, mirror);
      st.send_chunk = k;
      st.send_tag = tag_base + static_cast<int>(k);
      sched.steps.push_back(st);
    }
  }
}

/// Pairwise-mesh reduce-scatter phase in ring-position space: at round s,
/// send my contribution to block `to` directly to rank `to`, receive rank
/// `from`'s contribution to my block and reduce. With a locality ring order
/// the early rounds pair same-host neighbours (hierarchy pass). Round-robin
/// in position space keeps every round a perfect matching of send/recv pairs.
void append_mesh_reducescatter(ChannelSchedule& sched, int& index,
                               const RingOrder& order, int rank,
                               int tag_base) {
  const int n = static_cast<int>(order.size());
  const int pos = order.position_of(rank);
  for (int s = 1; s < n; ++s) {
    const int to = order.rank_at(pos + s);
    const int from = order.rank_at(pos - s);
    CommStep st;
    st.index = index++;
    st.send_to = to;
    st.send_chunk = static_cast<std::size_t>(to);  // my contribution to `to`
    st.send_tag = tag_base + rank;                 // inbound tag = sender rank
    st.recv_from = from;
    st.recv_chunk = static_cast<std::size_t>(rank);  // reduce into my block
    st.recv_tag = tag_base + from;
    st.reduce = true;
    sched.steps.push_back(st);
  }
}

/// Pairwise-mesh all-gather phase: same round-robin, each rank streams its
/// own (already final) block to every peer.
void append_mesh_allgather(ChannelSchedule& sched, int& index,
                           const RingOrder& order, int rank, int tag_base) {
  const int n = static_cast<int>(order.size());
  const int pos = order.position_of(rank);
  for (int s = 1; s < n; ++s) {
    const int to = order.rank_at(pos + s);
    const int from = order.rank_at(pos - s);
    CommStep st;
    st.index = index++;
    st.send_to = to;
    st.send_chunk = static_cast<std::size_t>(rank);  // my block
    st.send_tag = tag_base + rank;
    st.recv_from = from;
    st.recv_chunk = static_cast<std::size_t>(from);  // peer's block
    st.recv_tag = tag_base + from;
    st.reduce = false;
    sched.steps.push_back(st);
  }
}

/// Star broadcast phase: the root streams every chunk directly to each peer.
void append_star_broadcast(ChannelSchedule& sched, int& index, int nranks,
                           int rank, int root, std::size_t num_chunks,
                           int tag_base) {
  for (std::size_t k = 0; k < num_chunks; ++k) {
    if (rank == root) {
      for (int q = 0; q < nranks; ++q) {
        if (q == root) continue;
        CommStep st;
        st.index = index++;
        st.send_to = q;
        st.send_chunk = k;
        st.send_tag = tag_base + static_cast<int>(k);
        sched.steps.push_back(st);
      }
    } else {
      CommStep st;
      st.index = index++;
      st.recv_from = root;
      st.recv_chunk = k;
      st.recv_tag = tag_base + static_cast<int>(k);
      st.reduce = false;
      sched.steps.push_back(st);
    }
  }
}

/// Star reduce phase: every peer sends every chunk straight to the root,
/// which reduces all n-1 contributions into place. Tags k*(n) + sender keep
/// the root's n-1 receive slots per chunk distinct.
void append_star_reduce(ChannelSchedule& sched, int& index, int nranks,
                        int rank, int root, std::size_t num_chunks,
                        int tag_base) {
  for (std::size_t k = 0; k < num_chunks; ++k) {
    if (rank == root) {
      for (int q = 0; q < nranks; ++q) {
        if (q == root) continue;
        CommStep st;
        st.index = index++;
        st.recv_from = q;
        st.recv_chunk = k;
        st.recv_tag = tag_base + static_cast<int>(k) * nranks + q;
        st.reduce = true;
        sched.steps.push_back(st);
      }
    } else {
      CommStep st;
      st.index = index++;
      st.send_to = root;
      st.send_chunk = k;
      st.send_tag = tag_base + static_cast<int>(k) * nranks + rank;
      sched.steps.push_back(st);
    }
  }
}

/// Chain (pipelined ring-order) reduce phase over n chunks: data flows along
/// ring-successor edges towards `root`, each hop reducing; only the root
/// holds the result.
void append_chain_reduce(ChannelSchedule& sched, int& index,
                         const RingOrder& order, int rank, int root) {
  const int n = static_cast<int>(order.size());
  const int pos = order.position_of(rank);
  // Chain index: 0 at the position right after the root, n-1 at the root, so
  // data flows along ring-successor edges and terminates at the root.
  const int ci = mod(pos - order.position_of(root) - 1, n);
  for (int k = 0; k < n; ++k) {
    if (ci > 0) {
      CommStep st;
      st.index = index++;
      st.recv_from = order.rank_at(pos - 1);
      st.recv_chunk = static_cast<std::size_t>(k);
      st.recv_tag = k;
      st.reduce = true;
      sched.steps.push_back(st);
    }
    if (ci < n - 1) {
      CommStep st;
      st.index = index++;
      st.send_to = order.rank_at(pos + 1);
      st.send_chunk = static_cast<std::size_t>(k);
      st.send_tag = k;
      sched.steps.push_back(st);
    }
  }
}

/// Pairwise AllToAll: at exchange step s, rank r sends its send-buffer block
/// (r + s) mod n to that rank and receives block r of rank (r - s) mod n.
/// Source and destination blocks differ — the executor reads the sender's
/// block `send_chunk` and writes the receiver's block `recv_chunk`.
void append_mesh_alltoall(ChannelSchedule& sched, int& index, int nranks,
                          int rank) {
  for (int s = 1; s < nranks; ++s) {
    const int to = (rank + s) % nranks;
    const int from = (rank - s + nranks) % nranks;
    CommStep st;
    st.index = index++;
    st.send_to = to;
    st.send_chunk = static_cast<std::size_t>(to);  // my block destined for `to`
    st.send_tag = rank;                            // inbound tag = sender rank
    st.recv_from = from;
    st.recv_chunk = static_cast<std::size_t>(from);  // lands in block `from`
    st.recv_tag = from;
    st.reduce = false;
    sched.steps.push_back(st);
  }
}

/// Star gather: every non-root sends its (single-block) buffer straight to
/// the root, which stores it at the sender's block index.
void append_star_gather(ChannelSchedule& sched, int& index, int nranks,
                        int rank, int root) {
  if (rank == root) {
    for (int q = 0; q < nranks; ++q) {
      if (q == root) continue;
      CommStep st;
      st.index = index++;
      st.recv_from = q;
      st.recv_chunk = static_cast<std::size_t>(q);  // block q of root's recv
      st.recv_tag = q;
      sched.steps.push_back(st);
    }
  } else {
    CommStep st;
    st.index = index++;
    st.send_to = root;
    st.send_chunk = 0;  // the sender's buffer is a single block
    st.send_tag = rank;
    sched.steps.push_back(st);
  }
}

/// Star scatter: the root sends block j of its buffer to rank j.
void append_star_scatter(ChannelSchedule& sched, int& index, int nranks,
                         int rank, int root) {
  if (rank == root) {
    for (int q = 0; q < nranks; ++q) {
      if (q == root) continue;
      CommStep st;
      st.index = index++;
      st.send_to = q;
      st.send_chunk = static_cast<std::size_t>(q);  // block q of root's send
      st.send_tag = q;
      sched.steps.push_back(st);
    }
  } else {
    CommStep st;
    st.index = index++;
    st.recv_from = root;
    st.recv_chunk = 0;  // the receiver's buffer is a single block
    st.recv_tag = rank;
    sched.steps.push_back(st);
  }
}

// --- hierarchy pass ----------------------------------------------------------

HierarchySummary summarize_hierarchy(const CompileInput& in) {
  HierarchySummary h;
  if (in.host_of_rank == nullptr || in.host_of_rank->empty()) return h;
  MCCS_EXPECTS(static_cast<int>(in.host_of_rank->size()) == in.nranks);
  const std::unordered_set<int> hosts(in.host_of_rank->begin(),
                                      in.host_of_rank->end());
  h.nhosts = static_cast<int>(hosts.size());
  for (int p = 0; p < in.nranks; ++p) {
    const int a = (*in.host_of_rank)[static_cast<std::size_t>(in.order->rank_at(p))];
    const int b =
        (*in.host_of_rank)[static_cast<std::size_t>(in.order->rank_at(p + 1))];
    if (a != b) ++h.cross_host_ring_edges;
  }
  return h;
}

/// Apply the fallback contract: the algorithm whose lowering actually runs.
Algorithm effective_algorithm(CollectiveKind kind, Algorithm algo) {
  switch (kind) {
    case CollectiveKind::kAllGather:
    case CollectiveKind::kReduceScatter:
      // Tree shapes cannot express block-per-rank outputs; ring can.
      if (algo == Algorithm::kTree || algo == Algorithm::kDoubleBinaryTree) {
        return Algorithm::kRing;
      }
      return algo;
    case CollectiveKind::kReduce:
      // Twin roots buy nothing when one root wants the whole result.
      if (algo == Algorithm::kDoubleBinaryTree) return Algorithm::kTree;
      return algo;
    case CollectiveKind::kAllToAll:
    case CollectiveKind::kGather:
    case CollectiveKind::kScatter:
      return Algorithm::kRing;  // fixed-shape kinds; value unused
    case CollectiveKind::kAllReduce:
    case CollectiveKind::kBroadcast:
      return algo;
  }
  return algo;
}

/// Double-binary-tree chunk count: even and >= 2 so the two trees split the
/// pipeline range evenly.
std::size_t dbt_chunks(std::size_t tree_chunks) {
  std::size_t kk = std::max<std::size_t>(2, tree_chunks);
  if (kk % 2 != 0) ++kk;
  return kk;
}

}  // namespace

CompiledSchedule compile_collective(const CompileInput& in) {
  MCCS_EXPECTS(in.order != nullptr);
  MCCS_EXPECTS(in.nranks >= 2);
  MCCS_EXPECTS(in.rank >= 0 && in.rank < in.nranks);
  MCCS_EXPECTS(in.root >= 0 && in.root < in.nranks);
  MCCS_EXPECTS(static_cast<int>(in.order->size()) == in.nranks);
  const int n = in.nranks;
  const std::size_t nsz = static_cast<std::size_t>(n);

  CompiledSchedule out;
  out.hierarchy = summarize_hierarchy(in);

  // One buffer chunk per rank, except where a tree picks its own pipeline
  // granularity below.
  out.schedule.num_chunks = nsz;
  int index = 0;

  // Fixed-shape kinds first: no algorithm choice, one emitter each.
  switch (in.kind) {
    case CollectiveKind::kAllToAll:
      append_mesh_alltoall(out.schedule, index, n, in.rank);
      out.phases = {{PhaseOp::kAllToAll, PhaseShape::kMesh, 0, 0, 0, nsz}};
      return out;
    case CollectiveKind::kGather:
      append_star_gather(out.schedule, index, n, in.rank, in.root);
      out.phases = {{PhaseOp::kGather, PhaseShape::kStar, in.root, 0, 0, nsz}};
      return out;
    case CollectiveKind::kScatter:
      append_star_scatter(out.schedule, index, n, in.rank, in.root);
      out.phases = {{PhaseOp::kScatter, PhaseShape::kStar, in.root, 0, 0, nsz}};
      return out;
    default:
      break;
  }

  const Algorithm algo = effective_algorithm(in.kind, in.algorithm);
  const int pos = in.order->position_of(in.rank);

  if (algo == Algorithm::kRing) {
    out.is_ring = true;
    out.my_position = pos;
    switch (in.kind) {
      case CollectiveKind::kAllReduce:
        // Decomposition: reduce-scatter then all-gather over the same ring.
        // The all-gather enters at position + 1 (where the reduce-scatter
        // leaves each position's finished chunk) with tags rebased past the
        // reduce-scatter's n-1, so the two phases form one 2(n-1)-step ring
        // whose tags equal its step indices.
        append_ring_phase(out.schedule, index, in.kind, *in.order, in.rank,
                          ring_reducescatter_steps(n, pos), 0);
        append_ring_phase(out.schedule, index, in.kind, *in.order, in.rank,
                          ring_allgather_steps(n, mod(pos + 1, n)), n - 1);
        out.phases = {{PhaseOp::kReduceScatter, PhaseShape::kRing, 0, 0, 0, nsz},
                      {PhaseOp::kAllGather, PhaseShape::kRing, 0, n - 1, 0, nsz}};
        return out;
      case CollectiveKind::kReduce:
        append_chain_reduce(out.schedule, index, *in.order, in.rank, in.root);
        out.phases = {{PhaseOp::kReduce, PhaseShape::kChain, in.root, 0, 0, nsz}};
        return out;
      case CollectiveKind::kAllGather:
        append_ring_phase(out.schedule, index, in.kind, *in.order, in.rank,
                          ring_allgather_steps(n, pos), 0);
        out.phases = {{PhaseOp::kAllGather, PhaseShape::kRing, 0, 0, 0, nsz}};
        return out;
      case CollectiveKind::kReduceScatter:
        append_ring_phase(out.schedule, index, in.kind, *in.order, in.rank,
                          ring_reducescatter_steps(n, pos), 0);
        out.phases = {
            {PhaseOp::kReduceScatter, PhaseShape::kRing, 0, 0, 0, nsz}};
        return out;
      case CollectiveKind::kBroadcast:
        // The pipelined chain runs in root-relative ring positions.
        append_ring_phase(
            out.schedule, index, in.kind, *in.order, in.rank,
            ring_broadcast_steps(n, mod(pos - in.order->position_of(in.root), n)),
            0);
        out.phases = {
            {PhaseOp::kBroadcast, PhaseShape::kRing, in.root, 0, 0, nsz}};
        return out;
      default:
        MCCS_CHECK(false, "unhandled ring lowering");
    }
  }

  if (algo == Algorithm::kTree) {
    const std::size_t kk = std::max<std::size_t>(1, in.tree_chunks);
    out.schedule.num_chunks = kk;
    switch (in.kind) {
      case CollectiveKind::kAllReduce:
        // Decomposition: Reduce to rank 0, then Broadcast back down the same
        // tree, with the broadcast's tags based past the reduce's 2*kk.
        append_tree_reduce(out.schedule, index, n, in.rank, 0, false, 0, kk, 0);
        append_tree_broadcast(out.schedule, index, n, in.rank, 0, false, 0, kk,
                              2 * static_cast<int>(kk));
        out.phases = {{PhaseOp::kReduce, PhaseShape::kTree, 0, 0, 0, kk},
                      {PhaseOp::kBroadcast, PhaseShape::kTree, 0,
                       2 * static_cast<int>(kk), 0, kk}};
        return out;
      case CollectiveKind::kBroadcast:
        append_tree_broadcast(out.schedule, index, n, in.rank, in.root, false,
                              0, kk, 0);
        out.phases = {
            {PhaseOp::kBroadcast, PhaseShape::kTree, in.root, 0, 0, kk}};
        return out;
      case CollectiveKind::kReduce:
        append_tree_reduce(out.schedule, index, n, in.rank, in.root, false, 0,
                           kk, 0);
        out.phases = {{PhaseOp::kReduce, PhaseShape::kTree, in.root, 0, 0, kk}};
        return out;
      default:
        MCCS_CHECK(false, "tree lowering: kind should have fallen back");
    }
  }

  if (algo == Algorithm::kDoubleBinaryTree) {
    const std::size_t kk = dbt_chunks(in.tree_chunks);
    const std::size_t half = kk / 2;
    out.schedule.num_chunks = kk;
    if (in.kind == CollectiveKind::kAllReduce) {
      // Two trees with different roots split the chunk range: tree A (root 0)
      // owns [0, half), tree B (root n/2) owns [half, kk), so no single rank
      // is the reduction root — and thus the NIC bottleneck — for every
      // chunk. Chunk-global tag arithmetic keeps the trees' tag sets
      // disjoint; phase-major order (all reduces, then all broadcasts) makes
      // the composition deadlock-free by the same induction as a single
      // tree.
      const int root_b = n / 2;
      append_tree_reduce(out.schedule, index, n, in.rank, 0, false, 0, half, 0);
      append_tree_reduce(out.schedule, index, n, in.rank, root_b, false, half,
                         kk, 0);
      const int base = 2 * static_cast<int>(kk);
      append_tree_broadcast(out.schedule, index, n, in.rank, 0, false, 0, half,
                            base);
      append_tree_broadcast(out.schedule, index, n, in.rank, root_b, false,
                            half, kk, base);
      out.phases = {{PhaseOp::kReduce, PhaseShape::kTree, 0, 0, 0, half},
                    {PhaseOp::kReduce, PhaseShape::kTree, root_b, 0, half, kk},
                    {PhaseOp::kBroadcast, PhaseShape::kTree, 0, base, 0, half},
                    {PhaseOp::kBroadcast, PhaseShape::kTree, root_b, base,
                     half, kk}};
      return out;
    }
    MCCS_CHECK(in.kind == CollectiveKind::kBroadcast,
               "dbt lowering: kind should have fallen back");
    // Both trees share the caller's root; the second is the mirrored tree
    // (tid = root - rank), so interior nodes of one are leaves of the other
    // and each tree streams half the chunks.
    append_tree_broadcast(out.schedule, index, n, in.rank, in.root, false, 0,
                          half, 0);
    append_tree_broadcast(out.schedule, index, n, in.rank, in.root, true, half,
                          kk, 0);
    out.phases = {
        {PhaseOp::kBroadcast, PhaseShape::kTree, in.root, 0, 0, half},
        {PhaseOp::kBroadcast, PhaseShape::kTree, in.root, 0, half, kk}};
    return out;
  }

  MCCS_CHECK(algo == Algorithm::kPairwise, "unknown algorithm");
  switch (in.kind) {
    case CollectiveKind::kAllReduce:
      // Decomposition: mesh reduce-scatter then mesh all-gather, one direct
      // flow per rank pair per phase — no forwarding, 2 steps of latency.
      append_mesh_reducescatter(out.schedule, index, *in.order, in.rank, 0);
      append_mesh_allgather(out.schedule, index, *in.order, in.rank, n);
      out.phases = {{PhaseOp::kReduceScatter, PhaseShape::kMesh, 0, 0, 0, nsz},
                    {PhaseOp::kAllGather, PhaseShape::kMesh, 0, n, 0, nsz}};
      return out;
    case CollectiveKind::kAllGather:
      append_mesh_allgather(out.schedule, index, *in.order, in.rank, 0);
      out.phases = {{PhaseOp::kAllGather, PhaseShape::kMesh, 0, 0, 0, nsz}};
      return out;
    case CollectiveKind::kReduceScatter:
      append_mesh_reducescatter(out.schedule, index, *in.order, in.rank, 0);
      out.phases = {{PhaseOp::kReduceScatter, PhaseShape::kMesh, 0, 0, 0, nsz}};
      return out;
    case CollectiveKind::kBroadcast:
      append_star_broadcast(out.schedule, index, n, in.rank, in.root, nsz, 0);
      out.phases = {
          {PhaseOp::kBroadcast, PhaseShape::kStar, in.root, 0, 0, nsz}};
      return out;
    case CollectiveKind::kReduce:
      append_star_reduce(out.schedule, index, n, in.rank, in.root, nsz, 0);
      out.phases = {{PhaseOp::kReduce, PhaseShape::kStar, in.root, 0, 0, nsz}};
      return out;
    default:
      MCCS_CHECK(false, "unhandled pairwise lowering");
  }
  return out;
}

std::vector<Algorithm> selectable_algorithms(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kAllReduce:
    case CollectiveKind::kBroadcast:
      return {Algorithm::kRing, Algorithm::kTree, Algorithm::kDoubleBinaryTree,
              Algorithm::kPairwise};
    case CollectiveKind::kReduce:
      return {Algorithm::kRing, Algorithm::kTree, Algorithm::kPairwise};
    case CollectiveKind::kAllGather:
    case CollectiveKind::kReduceScatter:
      return {Algorithm::kRing, Algorithm::kPairwise};
    case CollectiveKind::kAllToAll:
    case CollectiveKind::kGather:
    case CollectiveKind::kScatter:
      return {Algorithm::kRing};  // fixed shape; algorithm is a no-op
  }
  return {Algorithm::kRing};
}

std::vector<std::pair<int, int>> tree_edges(int nranks, int root,
                                            CollectiveKind kind) {
  MCCS_EXPECTS(nranks >= 2);
  std::vector<std::pair<int, int>> edges;
  for (int tid = 1; tid < nranks; ++tid) {
    const int up = rank_of_tid(tid, root, nranks, false);
    const int down =
        rank_of_tid(tree_shape(nranks, tid).parent, root, nranks, false);
    // Broadcast flows down the tree, Reduce flows up (child -> parent), and
    // AllReduce uses both directions. Advertising the parent->child edge for
    // kReduce would be a phantom edge the schedule never sends on: a flow
    // assigner consuming the per-kind edge set would place capacity on dead
    // links and starve the live ones.
    if (kind != CollectiveKind::kReduce) edges.emplace_back(down, up);
    if (kind == CollectiveKind::kAllReduce || kind == CollectiveKind::kReduce) {
      edges.emplace_back(up, down);
    }
  }
  return edges;
}

std::vector<std::pair<int, int>> algorithm_edges(Algorithm algorithm,
                                                 const RingOrder& order) {
  const int n = static_cast<int>(order.size());
  std::vector<std::pair<int, int>> edges;
  if (n < 2) return edges;

  // Ring-successor edges in position order — byte-for-byte the enumeration
  // the flow assigner has always used, and the floor every algorithm needs
  // because fallback kinds (e.g. AllGather under kTree) still run rings.
  auto append_ring_edges = [&] {
    for (int p = 0; p < n; ++p) {
      edges.emplace_back(order.rank_at(p), order.rank_at(p + 1));
    }
  };

  switch (algorithm) {
    case Algorithm::kRing:
      append_ring_edges();
      return edges;
    case Algorithm::kTree:
      edges = tree_edges(n, 0, CollectiveKind::kAllReduce);
      append_ring_edges();
      break;
    case Algorithm::kDoubleBinaryTree: {
      edges = tree_edges(n, 0, CollectiveKind::kAllReduce);
      const auto tree_b = tree_edges(n, n / 2, CollectiveKind::kAllReduce);
      edges.insert(edges.end(), tree_b.begin(), tree_b.end());
      append_ring_edges();
      break;
    }
    case Algorithm::kPairwise:
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if (i == j) continue;
          edges.emplace_back(order.rank_at(i), order.rank_at(j));
        }
      }
      return edges;  // already duplicate-free
  }

  // Tree unions can repeat edges (tree B overlapping tree A, rings touching
  // tree links); keep first occurrences, preserving order.
  std::unordered_set<long long> seen;
  std::vector<std::pair<int, int>> unique;
  unique.reserve(edges.size());
  for (const auto& e : edges) {
    const long long key = static_cast<long long>(e.first) * 1'000'000 + e.second;
    if (seen.insert(key).second) unique.push_back(e);
  }
  return unique;
}

Time algorithm_cost(Algorithm algorithm, CollectiveKind kind, int nranks,
                    Bytes bytes, const CostParams& p) {
  if (nranks <= 1) return 0.0;
  const double n = static_cast<double>(nranks);
  const double B = static_cast<double>(bytes);
  // Depth of the rotated complete binary tree (levels below the root).
  const double depth = std::ceil(std::log2(n + 1.0));
  const Algorithm algo = effective_algorithm(kind, algorithm);

  switch (kind) {
    case CollectiveKind::kAllReduce:
      switch (algo) {
        case Algorithm::kRing:
          // 2(n-1) serial steps; each byte crosses a link twice, striped.
          return 2.0 * (n - 1.0) * p.alpha + 2.0 * (n - 1.0) / n * B * p.beta;
        case Algorithm::kTree:
          // 2*depth hops up+down; the root's link carries ~2B each way.
          return 2.0 * depth * p.alpha + 4.0 * B * p.beta;
        case Algorithm::kDoubleBinaryTree:
          // Halved root bottleneck, but our lowering serializes the two
          // trees' phases, so the bandwidth term lands between tree and
          // ring and the latency term slightly above the single tree —
          // matching measurement, where this schedule never strictly wins.
          return (2.0 * depth + 2.0) * p.alpha + 3.6 * B * p.beta;
        case Algorithm::kPairwise:
          // 2 rounds of latency but n-1 concurrent flows fan in on each
          // NIC; model the serialization as a bandwidth penalty vs ring.
          return 2.0 * (n - 1.0) * p.alpha + 2.5 * (n - 1.0) / n * B * p.beta;
      }
      break;
    case CollectiveKind::kAllGather:
    case CollectiveKind::kReduceScatter:
      if (algo == Algorithm::kPairwise) {
        return (n - 1.0) * p.alpha + 1.25 * (n - 1.0) / n * B * p.beta;
      }
      return (n - 1.0) * p.alpha + (n - 1.0) / n * B * p.beta;
    case CollectiveKind::kBroadcast:
    case CollectiveKind::kReduce:
      switch (algo) {
        case Algorithm::kRing:
          // Pipelined chain: n-1 hops of latency, each byte one link.
          return (n + 1.0) * p.alpha + B * p.beta;
        case Algorithm::kTree:
          // depth hops; interior nodes forward to two children serially.
          return depth * p.alpha + 2.0 * B * p.beta;
        case Algorithm::kDoubleBinaryTree:
          // Serialized halves again: latency of two interleaved trees.
          return (depth + 2.0) * p.alpha + 2.0 * B * p.beta;
        case Algorithm::kPairwise:
          // Star: the root's NIC carries (n-1) full copies.
          return (n - 1.0) * p.alpha + (n - 1.0) * B * p.beta;
      }
      break;
    case CollectiveKind::kAllToAll:
    case CollectiveKind::kGather:
    case CollectiveKind::kScatter:
      // Fixed shape — a flat estimate so the selector is total.
      return (n - 1.0) * p.alpha + (n - 1.0) / n * B * p.beta;
  }
  return (n - 1.0) * p.alpha + B * p.beta;
}

Algorithm choose_algorithm(CollectiveKind kind, int nranks, Bytes bytes,
                           const CostParams& p) {
  Algorithm best = Algorithm::kRing;
  Time best_cost = 0.0;
  bool first = true;
  for (const Algorithm a : selectable_algorithms(kind)) {
    const Time c = algorithm_cost(a, kind, nranks, bytes, p);
    if (first || c < best_cost) {
      best = a;
      best_cost = c;
      first = false;
    }
  }
  return best;
}

std::uint32_t compiler_fingerprint(std::size_t tree_pipeline_chunks) {
  // FNV-1a over the pass-pipeline version plus every strategy knob (beyond
  // the algorithm) that shapes emitted schedules. Bump kPassVersion whenever
  // a pass changes emission — cached plans keyed on the old value then die
  // with their epoch instead of leaking stale shapes across a deploy.
  constexpr std::uint32_t kPassVersion = 1;
  std::uint32_t h = 2166136261u;
  const auto fold = [&h](std::uint32_t v) { h = (h ^ v) * 16777619u; };
  fold(kPassVersion);
  fold(static_cast<std::uint32_t>(tree_pipeline_chunks));
  return h;
}

}  // namespace mccs::coll
