#pragma once
// Ring collective algorithm schedules (the algorithms MCCS ports from NCCL's
// ring kernels, §5). A schedule describes, for the participant at ring
// position p out of n, which buffer chunk it sends to its successor and which
// it receives from its predecessor at every step, plus whether the received
// chunk is reduced into the local buffer or copied.
//
// The schedules operate on *positions* in a ring ordering, not ranks: the
// ring ordering (rank permutation) is exactly the knob MCCS's locality-aware
// ring-configuration policy turns, so it is kept separate (RingOrder).

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "collectives/types.h"

namespace mccs::coll {

/// A ring ordering: order[p] = rank occupying ring position p.
/// Identity order (NCCL's default inter-host behaviour) is order[p] = p.
class RingOrder {
 public:
  explicit RingOrder(std::vector<int> order) : order_(std::move(order)) {
    MCCS_EXPECTS(!order_.empty());
    std::vector<bool> seen(order_.size(), false);
    for (int r : order_) {
      MCCS_EXPECTS(r >= 0 && static_cast<std::size_t>(r) < order_.size());
      MCCS_CHECK(!seen[static_cast<std::size_t>(r)], "ring order must be a permutation");
      seen[static_cast<std::size_t>(r)] = true;
    }
    position_of_.resize(order_.size());
    for (std::size_t p = 0; p < order_.size(); ++p) {
      position_of_[static_cast<std::size_t>(order_[p])] = static_cast<int>(p);
    }
  }

  static RingOrder identity(std::size_t n) {
    std::vector<int> o(n);
    for (std::size_t i = 0; i < n; ++i) o[i] = static_cast<int>(i);
    return RingOrder(std::move(o));
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] int rank_at(int position) const {
    return order_[static_cast<std::size_t>(mod(position))];
  }
  [[nodiscard]] int position_of(int rank) const {
    MCCS_EXPECTS(rank >= 0 && static_cast<std::size_t>(rank) < order_.size());
    return position_of_[static_cast<std::size_t>(rank)];
  }
  /// Rank this rank sends to (its ring successor).
  [[nodiscard]] int next_rank(int rank) const {
    return rank_at(position_of(rank) + 1);
  }
  /// Rank this rank receives from (its ring predecessor).
  [[nodiscard]] int prev_rank(int rank) const {
    return rank_at(position_of(rank) - 1);
  }
  [[nodiscard]] const std::vector<int>& order() const { return order_; }

  [[nodiscard]] RingOrder reversed() const {
    std::vector<int> rev(order_.rbegin(), order_.rend());
    return RingOrder(std::move(rev));
  }

  friend bool operator==(const RingOrder& a, const RingOrder& b) {
    return a.order_ == b.order_;
  }

 private:
  [[nodiscard]] int mod(int p) const {
    const int n = static_cast<int>(order_.size());
    return ((p % n) + n) % n;
  }

  std::vector<int> order_;
  std::vector<int> position_of_;
};

/// Sentinel: this step has no send (or no recv) half.
inline constexpr std::size_t kNoChunk = static_cast<std::size_t>(-1);

/// One ring step for one participant.
///
/// Transfers are matched between neighbours by *tag*, not step index: the
/// sender labels the transfer `send_tag` and the receiver waits for its
/// current step's `recv_tag`. For the symmetric schedules (AllReduce,
/// AllGather, ReduceScatter) tags equal the step index on both sides; for
/// the pipelined Broadcast chain the sender's step k forwards chunk k-1,
/// which the receiver awaits at its own step k-1, so tags are chunk indices.
struct RingStep {
  int index = 0;           ///< step number, 0-based
  std::size_t send_chunk = kNoChunk;  ///< chunk index sent to the successor
  std::size_t recv_chunk = kNoChunk;  ///< chunk index received from the predecessor
  bool reduce = false;     ///< reduce received data into local chunk (vs copy)
  int send_tag = -1;       ///< transfer tag attached to the send
  int recv_tag = -1;       ///< transfer tag this step's recv waits for

  [[nodiscard]] bool has_send() const { return send_chunk != kNoChunk; }
  [[nodiscard]] bool has_recv() const { return recv_chunk != kNoChunk; }
};

/// Chunk boundaries: chunk i of `count` elements split n ways.
struct ChunkRange {
  std::size_t begin_elem = 0;
  std::size_t count_elem = 0;
};

inline ChunkRange chunk_range(std::size_t total_elems, std::size_t n_chunks,
                              std::size_t chunk) {
  MCCS_EXPECTS(chunk < n_chunks);
  const std::size_t b = total_elems * chunk / n_chunks;
  const std::size_t e = total_elems * (chunk + 1) / n_chunks;
  return ChunkRange{b, e - b};
}

// --- per-position step schedules -------------------------------------------
// All schedules below operate on a logical buffer of n chunks.

/// Ring AllGather: n-1 steps over the output buffer of n chunks, where chunk
/// r initially holds rank r's contribution only at position_of(r).
std::vector<RingStep> ring_allgather_steps(int n, int position);

/// Ring ReduceScatter: n-1 reducing steps (the first phase of the compiler's
/// ring AllReduce); afterwards the chunk at index `position + 1 (mod n)`
/// (reducescatter_owned_chunk) holds the full reduction for that position's
/// output.
std::vector<RingStep> ring_reducescatter_steps(int n, int position);

/// Chunk index that holds this position's fully-reduced output after the
/// reduce-scatter pass.
std::size_t reducescatter_owned_chunk(int n, int position);

/// Ring (pipelined chain) Broadcast over n chunks. `position` is relative to
/// the root's ring position (the root is 0): the root streams chunks down the
/// chain; interior positions receive chunk k while forwarding chunk k-1; the
/// tail only receives.
std::vector<RingStep> ring_broadcast_steps(int n, int position);

/// Map a positional chunk index to the index of the chunk in the user's
/// buffer. AllReduce/Broadcast chunks are arbitrary partitions (identity);
/// AllGather output chunk r holds rank r's contribution; ReduceScatter's
/// assignment is rotated so each rank ends up owning its own output chunk.
std::size_t chunk_to_buffer_index(CollectiveKind kind, const RingOrder& order,
                                  std::size_t positional_chunk);

// --- aggregate (flow-level) edge volumes ------------------------------------
// Total bytes a ring collective pushes over *each* ring edge; used by the
// large-scale simulator and the bandwidth math below.

inline double allreduce_edge_volume(int n, Bytes total_bytes) {
  MCCS_EXPECTS(n >= 2);
  return 2.0 * (n - 1) / n * static_cast<double>(total_bytes);
}
inline double allgather_edge_volume(int n, Bytes total_output_bytes) {
  MCCS_EXPECTS(n >= 2);
  return static_cast<double>(n - 1) / n * static_cast<double>(total_output_bytes);
}
inline double reducescatter_edge_volume(int n, Bytes total_input_bytes) {
  return allgather_edge_volume(n, total_input_bytes);
}
inline double broadcast_edge_volume(int /*n*/, Bytes total_bytes) {
  return static_cast<double>(total_bytes);
}

// --- nccl-tests bandwidth math ----------------------------------------------
// algbw = size / time; busbw = algbw * factor, where the factor makes the
// number comparable across collectives and participant counts
// (github.com/NVIDIA/nccl-tests/blob/master/doc/PERFORMANCE.md).

inline double bus_bandwidth_factor(CollectiveKind kind, int n) {
  MCCS_EXPECTS(n >= 2);
  switch (kind) {
    case CollectiveKind::kAllReduce: return 2.0 * (n - 1) / n;
    case CollectiveKind::kAllGather: return static_cast<double>(n - 1) / n;
    case CollectiveKind::kReduceScatter: return static_cast<double>(n - 1) / n;
    case CollectiveKind::kBroadcast: return 1.0;
    case CollectiveKind::kReduce: return 1.0;
    case CollectiveKind::kAllToAll: return static_cast<double>(n - 1) / n;
    case CollectiveKind::kGather: return static_cast<double>(n - 1) / n;
    case CollectiveKind::kScatter: return static_cast<double>(n - 1) / n;
  }
  return 1.0;
}

inline Bandwidth algorithm_bandwidth(Bytes size, Time elapsed) {
  MCCS_EXPECTS(elapsed > 0.0);
  return static_cast<double>(size) / elapsed;
}

inline Bandwidth bus_bandwidth(CollectiveKind kind, int n, Bytes size, Time elapsed) {
  return algorithm_bandwidth(size, elapsed) * bus_bandwidth_factor(kind, n);
}

}  // namespace mccs::coll
