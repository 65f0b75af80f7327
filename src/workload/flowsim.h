#pragma once
// Flow-level DDP job simulator — the §6.5 methodology.
//
// The paper's large-scale results do not run the MCCS prototype; they come
// from a flow-level simulator with per-flow fairness. This module is that
// simulator: each job iterates { compute gap -> ring AllReduce }, and each
// AllReduce is realised in aggregate as one flow per inter-host ring edge
// per channel carrying the edge volume 2(n-1)/n * S / channels. Ring
// orderings (random vs optimal) and flow routing (ECMP vs FFA-assigned
// explicit routes) are the experiment's knobs.

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "collectives/ring.h"
#include "common/rng.h"
#include "mccs/strategy.h"
#include "netsim/network.h"
#include "sim/event_loop.h"

namespace mccs::workload {

enum class RingChoice {
  /// Random rank permutation over all GPUs — what a tenant gets when
  /// virtualization also hides the intra-host topology (§4.2).
  kRandomGpuOrder,
  /// Random host order with intra-host GPUs contiguous — NCCL with working
  /// intra-host detection but an arbitrary inter-host rank order.
  kRandomHostOrder,
  /// Locality-aware provider ordering.
  kOptimal,
};

struct SimJobSpec {
  JobId id;
  std::vector<GpuId> gpus;  ///< rank order
  Bytes model_bytes = 100'000'000;
  int iterations = 20;
  Time compute_gap = millis(90);  ///< fwd+bwd compute between AllReduces
  RingChoice ring = RingChoice::kRandomHostOrder;
};

/// Explicit-route map keyed by CommStrategy::route_key(channel, position).
using SimRouteMap = std::unordered_map<std::uint64_t, RouteId>;

/// One flow-level job.
class FlowSimJob {
 public:
  FlowSimJob(sim::EventLoop& loop, net::Network& network, const cluster::Cluster& cluster,
             SimJobSpec spec, Rng& rng);

  FlowSimJob(const FlowSimJob&) = delete;
  FlowSimJob& operator=(const FlowSimJob&) = delete;

  /// Install explicit routes computed by the FFA policy (empty = ECMP). New
  /// iterations pick up the latest map; in-flight flows keep their path.
  void set_routes(SimRouteMap routes) { routes_ = std::move(routes); }

  void start(std::function<void(JobId, Time)> on_done);

  [[nodiscard]] const SimJobSpec& spec() const { return spec_; }
  [[nodiscard]] const svc::CommStrategy& strategy() const { return strategy_; }
  /// AllReduce completion time of each finished iteration, in order.
  [[nodiscard]] const std::vector<Time>& allreduce_times() const {
    return allreduce_times_;
  }
  /// Mean AllReduce completion time across finished iterations.
  [[nodiscard]] Time avg_allreduce_time() const;
  [[nodiscard]] bool finished() const { return done_; }

 private:
  void start_iteration();
  void on_flow_done();

  sim::EventLoop* loop_;
  net::Network* network_;
  const cluster::Cluster* cluster_;
  SimJobSpec spec_;
  svc::CommStrategy strategy_;
  SimRouteMap routes_;
  std::uint64_t ecmp_salt_;

  int iteration_ = 0;
  int flows_outstanding_ = 0;
  Time iter_start_ = 0.0;
  std::vector<Time> allreduce_times_;
  bool done_ = false;
  std::function<void(JobId, Time)> on_done_;
};

}  // namespace mccs::workload
