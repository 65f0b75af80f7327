#include "routes.h"

#include <algorithm>
#include <chrono>

namespace perfbench {

using namespace mccs;
using Clock = std::chrono::steady_clock;

RouteTiming time_routes(const net::Topology& topo,
                        const std::set<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  RouteTiming t;
  if (pairs.empty()) return t;
  net::Routing routing(topo);
  const Clock::time_point f0 = Clock::now();
  for (const auto& [s, d] : pairs) (void)routing.paths(NodeId{s}, NodeId{d});
  const double fill_s = std::chrono::duration<double>(Clock::now() - f0).count();
  // Enough cached lookups for a stable per-lookup time on any pair count.
  const std::size_t reps = std::max<std::size_t>(1, 200000 / pairs.size());
  std::size_t sink = 0;
  const Clock::time_point l0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    for (const auto& [s, d] : pairs) sink += routing.paths(NodeId{s}, NodeId{d}).size();
  }
  const double lookup_s = std::chrono::duration<double>(Clock::now() - l0).count();
  const auto n = static_cast<double>(pairs.size());
  t.fill_us = fill_s * 1e6 / n;
  t.lookup_ns = sink > 0 ? lookup_s * 1e9 / (n * static_cast<double>(reps)) : 0.0;
  return t;
}

}  // namespace perfbench
