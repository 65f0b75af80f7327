#include "cluster/placement.h"

#include <algorithm>

namespace mccs::cluster {

GpuAllocator::GpuAllocator(const Cluster& cluster)
    : cluster_(&cluster), in_use_(cluster.gpu_count(), false), free_(cluster.gpu_count()) {
  for (std::uint32_t g = 0; g < cluster.gpu_count(); ++g) {
    const std::uint32_t rack = cluster.rack_of_gpu(GpuId{g}).get();
    if (rack >= racks_.size()) racks_.resize(rack + 1);
    racks_[rack].gpus.push_back(GpuId{g});
    ++racks_[rack].free;
  }
}

void GpuAllocator::take(GpuId g) {
  MCCS_CHECK(!in_use_[g.get()], "allocator chose an occupied GPU");
  in_use_[g.get()] = true;
  --racks_[cluster_->rack_of_gpu(g).get()].free;
}

std::optional<std::vector<GpuId>> GpuAllocator::allocate(int n,
                                                         Placement placement,
                                                         Rng& rng) {
  MCCS_EXPECTS(n > 0);
  if (static_cast<std::size_t>(n) > free_) return std::nullopt;

  std::vector<GpuId> chosen;
  chosen.reserve(static_cast<std::size_t>(n));

  if (placement == Placement::kRandom) {
    // The shuffle's draws depend on the whole ascending free list, so random
    // placement keeps its scan of the cluster.
    std::vector<GpuId> free_gpus;
    for (std::uint32_t g = 0; g < in_use_.size(); ++g) {
      if (!in_use_[g]) free_gpus.push_back(GpuId{g});
    }
    rng.shuffle(free_gpus);
    chosen.assign(free_gpus.begin(), free_gpus.begin() + n);
    for (GpuId g : chosen) take(g);
  } else {
    // Compact: repeatedly take the rack with the most free GPUs (a rack that
    // fits the whole remainder wins outright), packing rack by rack.
    std::size_t remaining = static_cast<std::size_t>(n);
    while (remaining > 0) {
      // Prefer the smallest rack that still fits everything; otherwise the
      // fullest rack. Ties go to the lower rack id.
      std::size_t best_rack = 0;
      std::size_t best_size = 0;
      bool found_fit = false;
      std::size_t fit_size = static_cast<std::size_t>(-1);
      for (std::size_t r = 0; r < racks_.size(); ++r) {
        const std::size_t free = racks_[r].free;
        if (free == 0) continue;
        if (free >= remaining && free < fit_size) {
          found_fit = true;
          fit_size = free;
          best_rack = r;
        }
        if (!found_fit && free > best_size) {
          best_size = free;
          best_rack = r;
        }
      }
      // Lowest ids first within the rack keeps hosts contiguous.
      std::size_t take_n = std::min(remaining, racks_[best_rack].free);
      remaining -= take_n;
      for (GpuId g : racks_[best_rack].gpus) {
        if (take_n == 0) break;
        if (in_use_[g.get()]) continue;
        take(g);
        chosen.push_back(g);
        --take_n;
      }
    }
  }

  free_ -= static_cast<std::size_t>(n);
  return chosen;
}

void GpuAllocator::release(const std::vector<GpuId>& gpus) {
  // Validate the whole list before touching any state, so a rejected release
  // leaves the allocator exactly as it was.
  std::vector<GpuId> sorted = gpus;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    MCCS_EXPECTS(sorted[i].get() < in_use_.size());
    MCCS_EXPECTS(in_use_[sorted[i].get()]);
    MCCS_EXPECTS(i == 0 || sorted[i - 1] != sorted[i]);
  }
  for (GpuId g : gpus) {
    in_use_[g.get()] = false;
    ++racks_[cluster_->rack_of_gpu(g).get()].free;
  }
  free_ += gpus.size();
}

}  // namespace mccs::cluster
