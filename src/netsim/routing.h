#pragma once
// Equal-cost multi-path routing over a Topology.
//
// For each (src, dst) node pair we enumerate *all* shortest paths in a
// deterministic order. A flow is mapped to one of them either by ECMP
// hashing (the cloud default the paper criticises) or by an explicit
// RouteId chosen by the provider (the source-routing / policy-based-routing
// analogue MCCS uses: the service stamps each RDMA connection's UDP source
// port and the switch maps it to a path).
//
// Scaling: enumeration is restricted to the shortest-path DAG between the
// pair (forward distances from src intersected with backward distances from
// dst), so a 32k-endpoint Clos costs O(paths) per pair instead of exploring
// every same-depth dead end. The BFS distance labels are epoch-marked
// scratch reused across cache misses — path resolution performs no O(nodes)
// clearing and no allocation beyond the cached result itself.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "netsim/topology.h"

namespace mccs::net {

/// A path is the ordered list of links from src to dst.
using Path = std::vector<LinkId>;

/// Non-owning view of a path (a contiguous run of LinkIds). The Network
/// hands out views into its interned path arena, which lives as long as the
/// Network itself; views obtained from a `Path` are only as durable as that
/// vector. Implicit construction from `Path` keeps call sites symmetric.
class PathView {
 public:
  constexpr PathView() = default;
  constexpr PathView(const LinkId* data, std::size_t size)
      : data_(data), size_(static_cast<std::uint32_t>(size)) {}
  PathView(const Path& p)  // NOLINT(google-explicit-constructor)
      : PathView(p.data(), p.size()) {}

  [[nodiscard]] const LinkId* begin() const { return data_; }
  [[nodiscard]] const LinkId* end() const { return data_ + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] LinkId operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] LinkId front() const { return data_[0]; }
  [[nodiscard]] LinkId back() const { return data_[size_ - 1]; }
  /// Materialise an owning copy (for consumers that outlive the source).
  [[nodiscard]] Path to_path() const { return Path(begin(), end()); }

  friend bool operator==(PathView a, PathView b) {
    if (a.size_ != b.size_) return false;
    for (std::uint32_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }

 private:
  const LinkId* data_ = nullptr;
  std::uint32_t size_ = 0;
};

class Routing {
 public:
  explicit Routing(const Topology& topo) : topo_(&topo) {}

  /// All equal-cost shortest paths from src to dst, deterministic order.
  /// Computed lazily and cached. Throws if dst is unreachable.
  const std::vector<Path>& paths(NodeId src, NodeId dst) const;

  /// Number of equal-cost paths between two nodes.
  [[nodiscard]] std::size_t path_count(NodeId src, NodeId dst) const {
    return paths(src, dst).size();
  }

  /// Select a path by explicit route id (modulo the path count, mirroring a
  /// switch policy table that wraps).
  const Path& by_route_id(NodeId src, NodeId dst, RouteId route) const {
    const auto& ps = paths(src, dst);
    return ps[route.get() % ps.size()];
  }

  /// Select a path by ECMP hash of a flow key.
  const Path& by_ecmp(NodeId src, NodeId dst, std::uint64_t flow_key) const {
    const auto& ps = paths(src, dst);
    return ps[ecmp_hash(flow_key) % ps.size()];
  }

  /// The hash an ECMP switch would apply (splitmix64 — uniform, deterministic).
  static std::uint64_t ecmp_hash(std::uint64_t key) {
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  static std::uint64_t key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src.get()) << 32) | dst.get();
  }

  const Topology* topo_;
  mutable std::unordered_map<std::uint64_t, std::vector<Path>> cache_;

  // Epoch-marked BFS scratch (forward distances from src, backward from
  // dst), reused across cache misses. Entries whose epoch tag is stale read
  // as "unreached" — no O(nodes) reset per pair. Routing is lazily mutable
  // like the cache itself: resolve paths on one thread.
  struct BfsScratch {
    std::vector<std::uint32_t> dist;
    std::vector<std::uint64_t> epoch;
    std::uint64_t current = 0;
    std::vector<NodeId> queue;
  };
  mutable BfsScratch fwd_;
  mutable BfsScratch rev_;
};

}  // namespace mccs::net
