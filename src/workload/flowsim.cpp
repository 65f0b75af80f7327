#include "workload/flowsim.h"

#include <algorithm>

#include "policy/ring_config.h"

namespace mccs::workload {

FlowSimJob::FlowSimJob(sim::EventLoop& loop, net::Network& network,
                       const cluster::Cluster& cluster, SimJobSpec spec, Rng& rng)
    : loop_(&loop), network_(&network), cluster_(&cluster), spec_(std::move(spec)),
      ecmp_salt_(rng.engine()()) {
  MCCS_EXPECTS(spec_.gpus.size() >= 2);

  // Base rank order per the ring choice.
  std::vector<int> base(spec_.gpus.size());
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = static_cast<int>(i);
  switch (spec_.ring) {
    case RingChoice::kRandomGpuOrder:
      rng.shuffle(base);
      break;
    case RingChoice::kRandomHostOrder: {
      // Group ranks by host, then shuffle the host groups.
      std::unordered_map<std::uint32_t, std::vector<int>> by_host;
      std::vector<std::uint32_t> hosts;
      for (int r : base) {
        const std::uint32_t h =
            cluster_->host_of_gpu(spec_.gpus[static_cast<std::size_t>(r)]).get();
        if (by_host.find(h) == by_host.end()) hosts.push_back(h);
        by_host[h].push_back(r);
      }
      rng.shuffle(hosts);
      base.clear();
      for (std::uint32_t h : hosts) {
        base.insert(base.end(), by_host[h].begin(), by_host[h].end());
      }
      break;
    }
    case RingChoice::kOptimal:
      base = policy::locality_aware_order(spec_.gpus, *cluster_);
      break;
  }

  // One ring per NIC on the busiest host of the job.
  int max_local = 1;
  std::unordered_map<std::uint32_t, int> per_host;
  for (GpuId g : spec_.gpus) {
    max_local = std::max(max_local, ++per_host[cluster_->host_of_gpu(g).get()]);
  }
  const int nics = static_cast<int>(
      cluster_->host(cluster_->host_of_gpu(spec_.gpus.front())).nic_nodes.size());
  const int channels = std::min(max_local, nics);
  strategy_.channel_orders =
      svc::make_channel_orders(base, spec_.gpus, *cluster_, channels);
}

void FlowSimJob::start(std::function<void(JobId, Time)> on_done) {
  on_done_ = std::move(on_done);
  start_iteration();
}

void FlowSimJob::start_iteration() {
  if (iteration_ >= spec_.iterations) {
    done_ = true;
    if (on_done_) on_done_(spec_.id, loop_->now());
    return;
  }
  ++iteration_;
  loop_->schedule_after(spec_.compute_gap, [this] {
    iter_start_ = loop_->now();
    const int n = static_cast<int>(spec_.gpus.size());
    const int channels = strategy_.num_channels();
    const double edge_volume =
        coll::allreduce_edge_volume(n, spec_.model_bytes) / channels;

    flows_outstanding_ = 0;
    // Every ring edge starts at this instant: one coalesced solve for the
    // whole launch instead of one per edge (DESIGN.md §15).
    net::Network::SolveBatch batch(*network_);
    for (int c = 0; c < channels; ++c) {
      const coll::RingOrder& order =
          strategy_.channel_orders[static_cast<std::size_t>(c)];
      for (int p = 0; p < n; ++p) {
        const int src_rank = order.rank_at(p);
        const int dst_rank = order.rank_at(p + 1);
        const GpuId a = spec_.gpus[static_cast<std::size_t>(src_rank)];
        const GpuId b = spec_.gpus[static_cast<std::size_t>(dst_rank)];
        if (cluster_->same_host(a, b)) continue;

        net::FlowSpec flow;
        flow.src = cluster_->nic_node_of_gpu(a);
        flow.dst = cluster_->nic_node_of_gpu(b);
        flow.size = static_cast<Bytes>(edge_volume);
        flow.job = spec_.id;
        auto rit = routes_.find(svc::CommStrategy::route_key(c, src_rank, dst_rank));
        if (rit != routes_.end()) {
          flow.route = rit->second;
        } else {
          flow.ecmp_key = net::Routing::ecmp_hash(
              ecmp_salt_ ^ (static_cast<std::uint64_t>(c) << 32) ^
              static_cast<std::uint64_t>(p));
        }
        flow.on_complete = [this](FlowId, Time) { on_flow_done(); };
        network_->start_flow(std::move(flow));
        ++flows_outstanding_;
      }
    }
    if (flows_outstanding_ == 0) {
      // Single-host job: intra-host AllReduce is not network bound; model a
      // fixed fast local collective.
      loop_->schedule_after(millis(2), [this] {
        allreduce_times_.push_back(loop_->now() - iter_start_);
        start_iteration();
      });
    }
  });
}

void FlowSimJob::on_flow_done() {
  if (--flows_outstanding_ == 0) {
    allreduce_times_.push_back(loop_->now() - iter_start_);
    start_iteration();
  }
}

Time FlowSimJob::avg_allreduce_time() const {
  MCCS_EXPECTS(!allreduce_times_.empty());
  double sum = 0.0;
  for (Time t : allreduce_times_) sum += t;
  return sum / static_cast<double>(allreduce_times_.size());
}

}  // namespace mccs::workload
