#include "collectives/ring.h"

namespace mccs::coll {
namespace {
int mod(int x, int n) { return ((x % n) + n) % n; }
}  // namespace

std::vector<RingStep> ring_allgather_steps(int n, int position) {
  MCCS_EXPECTS(n >= 2);
  MCCS_EXPECTS(position >= 0 && position < n);
  std::vector<RingStep> steps;
  steps.reserve(static_cast<std::size_t>(n - 1));
  for (int s = 0; s < n - 1; ++s) {
    RingStep st;
    st.index = s;
    st.send_chunk = static_cast<std::size_t>(mod(position - s, n));
    st.recv_chunk = static_cast<std::size_t>(mod(position - s - 1, n));
    st.reduce = false;
    st.send_tag = st.recv_tag = st.index;
    steps.push_back(st);
  }
  return steps;
}

std::vector<RingStep> ring_reducescatter_steps(int n, int position) {
  MCCS_EXPECTS(n >= 2);
  MCCS_EXPECTS(position >= 0 && position < n);
  std::vector<RingStep> steps;
  steps.reserve(static_cast<std::size_t>(n - 1));
  for (int s = 0; s < n - 1; ++s) {
    RingStep st;
    st.index = s;
    st.send_chunk = static_cast<std::size_t>(mod(position - s, n));
    st.recv_chunk = static_cast<std::size_t>(mod(position - s - 1, n));
    st.reduce = true;
    st.send_tag = st.recv_tag = st.index;
    steps.push_back(st);
  }
  return steps;
}

std::size_t reducescatter_owned_chunk(int n, int position) {
  return static_cast<std::size_t>(mod(position + 1, n));
}

std::vector<RingStep> ring_broadcast_steps(int n, int position) {
  MCCS_EXPECTS(n >= 2);
  MCCS_EXPECTS(position >= 0 && position < n);
  std::vector<RingStep> steps;
  if (position == 0) {
    // Root: stream every chunk to the successor.
    for (int k = 0; k < n; ++k) {
      RingStep st;
      st.index = k;
      st.send_chunk = static_cast<std::size_t>(k);
      st.send_tag = k;
      steps.push_back(st);
    }
  } else if (position == n - 1) {
    // Tail: only receive.
    for (int k = 0; k < n; ++k) {
      RingStep st;
      st.index = k;
      st.recv_chunk = static_cast<std::size_t>(k);
      st.recv_tag = k;
      steps.push_back(st);
    }
  } else {
    // Interior: receive chunk k while forwarding chunk k-1.
    for (int k = 0; k <= n; ++k) {
      RingStep st;
      st.index = k;
      if (k < n) {
        st.recv_chunk = static_cast<std::size_t>(k);
        st.recv_tag = k;
      }
      if (k >= 1) {
        st.send_chunk = static_cast<std::size_t>(k - 1);
        st.send_tag = k - 1;
      }
      steps.push_back(st);
    }
  }
  return steps;
}

std::size_t chunk_to_buffer_index(CollectiveKind kind, const RingOrder& order,
                                  std::size_t positional_chunk) {
  const int n = static_cast<int>(order.size());
  const int c = static_cast<int>(positional_chunk);
  MCCS_EXPECTS(c >= 0 && c < n);
  switch (kind) {
    case CollectiveKind::kAllReduce:
    case CollectiveKind::kBroadcast:
      return positional_chunk;
    case CollectiveKind::kAllGather:
      return static_cast<std::size_t>(order.rank_at(c));
    case CollectiveKind::kReduceScatter:
      return static_cast<std::size_t>(order.rank_at(c - 1));
    case CollectiveKind::kReduce:
    case CollectiveKind::kAllToAll:
    case CollectiveKind::kGather:
    case CollectiveKind::kScatter:
      break;  // no positional ring chunks; handled by dedicated schedules
  }
  MCCS_CHECK(false, "collective kind has no ring chunk mapping");
  return 0;
}

}  // namespace mccs::coll
