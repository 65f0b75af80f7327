#pragma once
// Job placement (§6.5): random placement scatters a job's GPUs anywhere in
// the cluster; compact placement packs a job into as few racks as possible.
// The allocator tracks per-GPU occupancy so jobs queue when the cluster is
// full (50 jobs of 16/32 GPUs oversubscribe the 768-GPU cluster).
//
// Compact placement reads a per-rack free index kept across calls: each
// rack's GPUs in ascending id order plus its free count. A pick scans the
// free counts in ascending rack id and takes the winner's lowest-id free
// GPUs, so it costs O(racks + rack size) instead of a scan of the cluster.

#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "common/ids.h"
#include "common/rng.h"

namespace mccs::cluster {

enum class Placement { kRandom, kCompact };

class GpuAllocator {
 public:
  explicit GpuAllocator(const Cluster& cluster);

  [[nodiscard]] std::size_t free_count() const { return free_; }

  /// Allocate `n` GPUs under the given policy; nullopt when fewer than n are
  /// free. The returned list is the job's rank order (rank r = result[r]).
  std::optional<std::vector<GpuId>> allocate(int n, Placement placement, Rng& rng);

  /// Return `gpus` to the free pool. Every id must be in range, in use and
  /// listed once; otherwise throws ContractViolation and changes nothing.
  void release(const std::vector<GpuId>& gpus);

 private:
  struct Rack {
    std::vector<GpuId> gpus;  ///< ascending id
    std::size_t free = 0;
  };

  void take(GpuId g);

  const Cluster* cluster_;
  std::vector<bool> in_use_;
  std::vector<Rack> racks_;  ///< indexed by RackId
  std::size_t free_;
};

}  // namespace mccs::cluster
