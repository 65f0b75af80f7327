#pragma once
// Route-resolution timing, shared by the workloads' traced runs.

#include <cstdint>
#include <set>
#include <utility>

#include "netsim/routing.h"

namespace perfbench {

/// Route resolution cost on a fresh Routing over (src, dst) node pairs:
/// mean microseconds per first resolution (fills the cache) and mean
/// nanoseconds per cached lookup.
struct RouteTiming {
  double fill_us = 0.0;
  double lookup_ns = 0.0;
};
RouteTiming time_routes(const mccs::net::Topology& topo,
                        const std::set<std::pair<std::uint32_t, std::uint32_t>>& pairs);

}  // namespace perfbench
