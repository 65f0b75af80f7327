#include "policy/flow_assign.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "collectives/compiler.h"
#include "netsim/network.h"

namespace mccs::policy {
namespace {

/// Collect every inter-host edge of an item's strategy as a pending flow —
/// the plan compiler's emitted edge list per channel (algorithm_edges), or
/// the full mesh when the strategy routes pairwise traffic explicitly. The
/// enumeration order doubles as the per-item drain order, for both the
/// one-shot and the incremental solver.
void collect_flows(std::size_t item_index, const AssignItem& item,
                   const cluster::Cluster& cluster,
                   std::vector<PendingFlow>& out) {
  const svc::CommStrategy& s = *item.strategy;
  const auto& gpus = *item.gpus_by_rank;
  const int n = static_cast<int>(gpus.size());

  auto add_edge = [&](int channel, int src_rank, int dst_rank) {
    const GpuId a = gpus[static_cast<std::size_t>(src_rank)];
    const GpuId b = gpus[static_cast<std::size_t>(dst_rank)];
    if (cluster.same_host(a, b)) return;
    const NodeId src = cluster.nic_node_of_gpu(a);
    const NodeId dst = cluster.nic_node_of_gpu(b);
    // Demand estimate: the sender NIC's uplink capacity (the rate the
    // connection would reach unimpeded), per Hedera's natural-demand idea.
    Bandwidth demand = 0.0;
    for (LinkId l : cluster.topology().out_links(src)) {
      demand = std::max(demand, cluster.topology().link(l).capacity);
    }
    out.push_back(PendingFlow{
        item_index, svc::CommStrategy::route_key(channel, src_rank, dst_rank),
        src, dst, demand, item.high_priority});
  };

  for (int c = 0; c < s.num_channels(); ++c) {
    if (s.route_pairwise_mesh) {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if (i != j) add_edge(c, i, j);
        }
      }
      continue;
    }
    // The compiler's emitted edge list for this algorithm over this
    // channel's order: the exact (src, dst) superset any compiled schedule
    // of the strategy can send on (compiler.h, algorithm_edges). For kRing
    // this enumerates ring successors in position order — byte-for-byte the
    // historical loop, so ring assignments (and the fig goldens behind
    // them) are untouched.
    const coll::RingOrder& order =
        s.channel_orders[static_cast<std::size_t>(c)];
    for (auto [src_rank, dst_rank] :
         coll::algorithm_edges(s.algorithm, order)) {
      add_edge(c, src_rank, dst_rank);
    }
  }
}

/// Best-fit: the path whose most-loaded link ends up least overloaded after
/// adding this flow's demand (normalised by capacity). Two refinements keep
/// the outcome sensible under ties:
///  * colliding with a flow of the SAME job is worse than with another
///    tenant's (a job's rings are always simultaneously active, a stranger's
///    may be idle), so same-job load carries a penalty;
///  * high-priority flows slightly prefer the reserved routes they alone may
///    use (PFA dedicates those routes to them).
/// Remaining ties break to the lowest route index (deterministic).
std::uint32_t best_route(const PendingFlow& f, const net::Routing& routing,
                         const cluster::Cluster& cluster,
                         const std::vector<double>& link_demand,
                         const std::vector<double>& own_demand,
                         const std::unordered_set<std::uint32_t>& reserved,
                         bool restrict_to_unreserved,
                         const net::Network* live,
                         const std::unordered_set<std::uint32_t>& failed,
                         double* score_out) {
  const auto& paths = routing.paths(f.src, f.dst);
  constexpr double kInadmissible = std::numeric_limits<double>::infinity();

  // Inadmissible routes score +inf. First pass avoids confirmed-failed links
  // entirely; if that leaves no admissible path (e.g. a NIC's only uplink
  // died), the second pass places the flow anyway so the assignment is
  // always total.
  auto score_route = [&](std::uint32_t r, bool avoid_failed) -> double {
    if (restrict_to_unreserved && reserved.count(r) > 0 &&
        paths.size() > reserved.size()) {
      return kInadmissible;
    }
    if (avoid_failed && !failed.empty()) {
      for (LinkId l : paths[r]) {
        if (failed.count(l.get()) > 0) return kInadmissible;
      }
    }
    double score = 0.0;
    for (LinkId l : paths[r]) {
      const double cap = cluster.topology().link(l).capacity;
      double load = link_demand[l.get()] + 0.5 * own_demand[l.get()];
      // Live telemetry (O(1) per-link index lookup): traffic the demand
      // model can't see — background flows, other tenants' libraries.
      if (live != nullptr) load += live->link_throughput(l);
      score = std::max(score, (load + f.demand) / cap);
    }
    if (!restrict_to_unreserved && f.high_priority && reserved.count(r) > 0) {
      score -= 1e-6;  // prefer the dedicated route on ties
    }
    return score;
  };

  for (const bool avoid_failed : {true, false}) {
    // Argmin, ties broken to the lowest route id.
    double best_score = kInadmissible;
    std::uint32_t best = 0;
    for (std::uint32_t r = 0; r < paths.size(); ++r) {
      const double score = score_route(r, avoid_failed);
      if (score < best_score) {
        best_score = score;
        best = r;
      }
    }
    if (std::isfinite(best_score)) {
      if (score_out != nullptr) *score_out = best_score;
      return best;
    }
    MCCS_CHECK(avoid_failed, "no admissible route for flow");
  }
  MCCS_CHECK(false, "unreachable");
  return 0;
}

/// splitmix64 finalizer — the audit sampler's hash (stable across platforms,
/// matching the FaultPlan generator's idiom).
std::uint64_t mix_u64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void fold_digest(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ull;  // FNV prime
  }
}

std::uint64_t assignment_digest(
    const std::unordered_map<std::uint32_t, RouteMap>& assignment) {
  std::uint64_t h = kFnvOffset;
  std::vector<std::uint32_t> ids;
  ids.reserve(assignment.size());
  for (const auto& [id, routes] : assignment) {
    if (!routes.empty()) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  std::vector<std::uint64_t> keys;
  for (std::uint32_t id : ids) {
    fold_digest(h, id);
    const RouteMap& routes = assignment.at(id);
    keys.clear();
    keys.reserve(routes.size());
    for (const auto& [key, route] : routes) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t key : keys) {
      fold_digest(h, key);
      fold_digest(h, routes.at(key).get());
    }
  }
  return h;
}

std::vector<PendingFlow> enumerate_flows(const AssignItem& item,
                                         const cluster::Cluster& cluster) {
  MCCS_EXPECTS(item.gpus_by_rank != nullptr && item.strategy != nullptr);
  std::vector<PendingFlow> out;
  collect_flows(0, item, cluster, out);
  return out;
}

std::unordered_map<std::uint32_t, RouteMap> assign_flows(
    const std::vector<AssignItem>& items, const cluster::Cluster& cluster,
    const net::Routing& routing, const AssignOptions& options) {
  // Per-item flow queues, drained round-robin across items for fairness.
  std::vector<std::vector<PendingFlow>> queues(items.size());
  std::vector<std::size_t> heads(items.size(), 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    MCCS_EXPECTS(items[i].gpus_by_rank != nullptr &&
                 items[i].strategy != nullptr);
    collect_flows(i, items[i], cluster, queues[i]);
  }

  std::vector<double> link_demand(cluster.topology().link_count(), 0.0);
  // Per-item load, for the same-job collision penalty.
  std::vector<std::vector<double>> item_demand(
      items.size(), std::vector<double>(cluster.topology().link_count(), 0.0));
  std::unordered_map<std::uint32_t, RouteMap> result;

  const bool record =
      options.telemetry != nullptr && options.telemetry->enabled();
  const int assign_track =
      record ? options.telemetry->timeline().track("policy", "assign") : -1;

  // High-priority flows are fitted first (they may use any route, and prefer
  // the reserved ones); then the rest, restricted to non-reserved routes.
  for (const bool priority_pass : {true, false}) {
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i].high_priority != priority_pass) continue;
        if (heads[i] >= queues[i].size()) continue;
        any = true;
        const PendingFlow& f = queues[i][heads[i]++];
        double score = 0.0;
        const std::uint32_t r = best_route(
            f, routing, cluster, link_demand, item_demand[i],
            options.reserved_routes, /*restrict_to_unreserved=*/!f.high_priority,
            options.network, options.failed_links, &score);
        for (LinkId l : routing.paths(f.src, f.dst)[r]) {
          link_demand[l.get()] += f.demand;
          item_demand[i][l.get()] += f.demand;
        }
        result[items[i].comm.get()][f.route_key] = RouteId{r};
        if (record) {
          // One instant per placement decision: which route won the best-fit
          // search and how loaded its bottleneck would be (the fit score).
          telemetry::Timeline& tl = options.telemetry->timeline();
          tl.instant(assign_track, "policy",
                     f.high_priority ? "pfa_assign" : "ffa_assign", options.now,
                     {{"comm", static_cast<std::int64_t>(items[i].comm.get())},
                      {"app", static_cast<std::int64_t>(items[i].app.get())},
                      {"route", static_cast<std::int64_t>(r)},
                      {"fit_score", score},
                      {"high_priority", f.high_priority}});
        }
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// IncrementalAssigner
// ---------------------------------------------------------------------------

IncrementalAssigner::IncrementalAssigner(const cluster::Cluster& cluster,
                                         const net::Routing& routing)
    : cluster_(&cluster),
      routing_(&routing),
      link_demand_(cluster.topology().link_count(), 0.0),
      link_items_(cluster.topology().link_count()),
      link_visit_(cluster.topology().link_count(), 0) {}

void IncrementalAssigner::set_reserved_routes(
    std::unordered_set<std::uint32_t> routes) {
  if (routes == reserved_routes_) return;
  reserved_routes_ = std::move(routes);
  // Reservation is keyed by route index, so it shifts scores everywhere.
  for (const auto& [id, st] : items_) dirty_items_.insert(id);
}

void IncrementalAssigner::set_failed_links(
    const std::unordered_set<std::uint32_t>& failed) {
  if (failed == failed_links_) return;
  for (std::uint32_t l : failed) {
    if (failed_links_.count(l) == 0 && l < link_visit_.size()) {
      dirty_links_.push_back(l);
    }
  }
  for (std::uint32_t l : failed_links_) {
    if (failed.count(l) == 0 && l < link_visit_.size()) {
      dirty_links_.push_back(l);
    }
  }
  failed_links_ = failed;
}

void IncrementalAssigner::add_item(const AssignItem& item) {
  MCCS_EXPECTS(item.gpus_by_rank != nullptr && item.strategy != nullptr);
  MCCS_EXPECTS(items_.count(item.comm.get()) == 0);
  ItemState& st = items_[item.comm.get()];
  st.app = item.app;
  st.high_priority = item.high_priority;
  st.gpus = *item.gpus_by_rank;
  st.strategy = *item.strategy;

  AssignItem owned = item;
  owned.gpus_by_rank = &st.gpus;
  owned.strategy = &st.strategy;
  collect_flows(0, owned, *cluster_, st.flows);

  // Candidate links = every link on every equal-cost path of every flow.
  // This is the interference footprint: another item can affect this one's
  // scores only through demand on one of these links.
  for (const PendingFlow& f : st.flows) {
    for (const auto& path : routing_->paths(f.src, f.dst)) {
      for (LinkId l : path) st.candidate_links.push_back(l.get());
    }
  }
  std::sort(st.candidate_links.begin(), st.candidate_links.end());
  st.candidate_links.erase(
      std::unique(st.candidate_links.begin(), st.candidate_links.end()),
      st.candidate_links.end());
  for (std::uint32_t l : st.candidate_links) {
    auto& owners = link_items_[l];
    owners.insert(std::lower_bound(owners.begin(), owners.end(),
                                   item.comm.get()),
                  item.comm.get());
  }
  dirty_items_.insert(item.comm.get());
}

void IncrementalAssigner::remove_item(CommId comm) {
  auto it = items_.find(comm.get());
  MCCS_EXPECTS(it != items_.end());
  ItemState& st = it->second;
  // The departed item influenced others only through demand it actually
  // placed, so its contribution links (not its full candidate set) seed the
  // dirty closure.
  for (const auto& [link, demand] : st.contrib) {
    link_demand_[link] -= demand;
    dirty_links_.push_back(link);
  }
  for (std::uint32_t l : st.candidate_links) {
    auto& owners = link_items_[l];
    owners.erase(std::lower_bound(owners.begin(), owners.end(), comm.get()));
  }
  dirty_items_.erase(comm.get());
  items_.erase(it);
}

void IncrementalAssigner::set_high_priority(CommId comm, bool high_priority) {
  auto it = items_.find(comm.get());
  MCCS_EXPECTS(it != items_.end());
  ItemState& st = it->second;
  if (st.high_priority == high_priority) return;
  st.high_priority = high_priority;
  for (PendingFlow& f : st.flows) f.high_priority = high_priority;
  dirty_items_.insert(comm.get());
}

bool IncrementalAssigner::update_strategy(CommId comm,
                                          const svc::CommStrategy& strategy) {
  auto it = items_.find(comm.get());
  MCCS_EXPECTS(it != items_.end());
  ItemState& st = it->second;

  auto orders_equal = [&] {
    if (st.strategy.channel_orders.size() != strategy.channel_orders.size()) {
      return false;
    }
    for (std::size_t i = 0; i < strategy.channel_orders.size(); ++i) {
      if (!(st.strategy.channel_orders[i] == strategy.channel_orders[i])) {
        return false;
      }
    }
    return true;
  };
  // Flows depend on the algorithm's edge list per channel order and the
  // mesh-routing flag — not on explicit routes or tree pipeline depth.
  const bool same_shape =
      st.strategy.algorithm == strategy.algorithm &&
      st.strategy.route_pairwise_mesh == strategy.route_pairwise_mesh &&
      orders_equal();
  if (same_shape) {
    st.strategy = strategy;
    return false;
  }

  // Re-register: removal subtracts the old demand and dirties the links it
  // loaded; re-adding rebuilds the flow list and candidate footprint from
  // the new edge list and marks the item dirty.
  const AppId app = st.app;
  const bool high_priority = st.high_priority;
  const std::vector<GpuId> gpus = std::move(st.gpus);
  remove_item(comm);
  AssignItem fresh;
  fresh.comm = comm;
  fresh.app = app;
  fresh.gpus_by_rank = &gpus;
  fresh.strategy = &strategy;
  fresh.high_priority = high_priority;
  add_item(fresh);
  return true;
}

void IncrementalAssigner::mark_link_dirty(LinkId link) {
  MCCS_EXPECTS(link.get() < link_visit_.size());
  dirty_links_.push_back(link.get());
}

bool IncrementalAssigner::item_high_priority(CommId comm) const {
  auto it = items_.find(comm.get());
  MCCS_EXPECTS(it != items_.end());
  return it->second.high_priority;
}

std::vector<CommId> IncrementalAssigner::item_ids() const {
  std::vector<CommId> out;
  out.reserve(items_.size());
  for (const auto& [id, st] : items_) out.push_back(CommId{id});
  return out;
}

std::vector<std::uint32_t> IncrementalAssigner::collect_closure(
    std::size_t* links_touched) {
  const std::uint64_t epoch = ++visit_epoch_;
  std::vector<std::uint32_t> worklist;
  std::vector<std::uint32_t> closure;

  auto visit_item = [&](std::uint32_t id) {
    auto it = items_.find(id);
    if (it == items_.end() || it->second.visit == epoch) return;
    it->second.visit = epoch;
    closure.push_back(id);
    worklist.push_back(id);
  };
  auto visit_link = [&](std::uint32_t l) {
    if (link_visit_[l] == epoch) return;
    link_visit_[l] = epoch;
    ++*links_touched;
    for (std::uint32_t id : link_items_[l]) visit_item(id);
  };

  for (std::uint32_t l : dirty_links_) visit_link(l);
  for (std::uint32_t id : dirty_items_) visit_item(id);
  // Expand to the full interference component(s): any item sharing a
  // candidate link with a closure item joins the closure.
  while (!worklist.empty()) {
    const std::uint32_t id = worklist.back();
    worklist.pop_back();
    for (std::uint32_t l : items_.at(id).candidate_links) visit_link(l);
  }
  std::sort(closure.begin(), closure.end());
  return closure;
}

IncrementalSolveStats IncrementalAssigner::solve(Time now) {
  IncrementalSolveStats stats;
  stats.live_items = items_.size();
  if (dirty_items_.empty() && dirty_links_.empty()) return stats;

  const std::vector<std::uint32_t> closure =
      collect_closure(&stats.links_touched);
  dirty_items_.clear();
  dirty_links_.clear();
  stats.solved_items = closure.size();
  if (closure.empty()) {
    // Dirt that touched no live item (e.g. a change-log entry for a link no
    // tenant crosses) still counts as a solve for audit sampling: staleness
    // can only be healed by a solve, so every non-trivial solve is a
    // candidate.
    ++solve_count_;
    maybe_audit(stats);
    return stats;
  }

  // Roll the closure's previous placements out of the global demand map;
  // everything outside the closure is in a different interference component,
  // so its demand cannot sit on any link the re-solve will score.
  for (std::uint32_t id : closure) {
    ItemState& st = items_.at(id);
    for (const auto& [link, demand] : st.contrib) link_demand_[link] -= demand;
    st.contrib.clear();
    st.routes.clear();
  }

  // Per-item own-demand scratch (dense, lazily zeroed via touched lists).
  const std::size_t link_count = link_demand_.size();
  while (own_pool_.size() < closure.size()) {
    own_pool_.emplace_back(link_count, 0.0);
    own_touched_.emplace_back();
  }
  for (std::size_t i = 0; i < closure.size(); ++i) {
    for (std::uint32_t l : own_touched_[i]) own_pool_[i][l] = 0.0;
    own_touched_[i].clear();
  }

  const bool record = telemetry_ != nullptr && telemetry_->enabled();
  const int assign_track =
      record ? telemetry_->timeline().track("policy", "assign") : -1;

  // The greedy, restricted to the closure: same two priority passes and the
  // same ascending-comm-id round-robin as assign_flows. Because the closure
  // is component-closed, this is exactly the full drain order with the
  // untouched components' turns deleted — and their turns never read or
  // wrote any link the closure scores, so the placements coincide.
  std::vector<std::size_t> heads(closure.size(), 0);
  for (const bool priority_pass : {true, false}) {
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t i = 0; i < closure.size(); ++i) {
        ItemState& st = items_.at(closure[i]);
        if (st.high_priority != priority_pass) continue;
        if (heads[i] >= st.flows.size()) continue;
        any = true;
        const PendingFlow& f = st.flows[heads[i]++];
        double score = 0.0;
        const std::uint32_t r = best_route(
            f, *routing_, *cluster_, link_demand_, own_pool_[i],
            reserved_routes_, /*restrict_to_unreserved=*/!f.high_priority,
            /*live=*/nullptr, failed_links_, &score);
        for (LinkId l : routing_->paths(f.src, f.dst)[r]) {
          link_demand_[l.get()] += f.demand;
          own_pool_[i][l.get()] += f.demand;
          own_touched_[i].push_back(l.get());
          st.contrib.emplace_back(l.get(), f.demand);
        }
        st.routes[f.route_key] = RouteId{r};
        ++stats.flows_resolved;
        if (record) {
          telemetry::Timeline& tl = telemetry_->timeline();
          tl.instant(assign_track, "policy",
                     f.high_priority ? "pfa_assign" : "ffa_assign", now,
                     {{"comm", static_cast<std::int64_t>(closure[i])},
                      {"app", static_cast<std::int64_t>(st.app.get())},
                      {"route", static_cast<std::int64_t>(r)},
                      {"fit_score", score},
                      {"high_priority", f.high_priority}});
        }
      }
    }
  }
  ++solve_count_;
  maybe_audit(stats);
  return stats;
}

void IncrementalAssigner::set_audit(const AuditOptions& options,
                                    telemetry::MetricsRegistry* metrics) {
  audit_ = options;
  audit_metrics_ = metrics;
}

std::unordered_map<std::uint32_t, RouteMap> IncrementalAssigner::full_resolve()
    const {
  std::vector<AssignItem> batch;
  batch.reserve(items_.size());
  for (const auto& [id, st] : items_) {
    AssignItem item;
    item.comm = CommId{id};
    item.app = st.app;
    item.gpus_by_rank = &st.gpus;
    item.strategy = &st.strategy;
    item.high_priority = st.high_priority;
    batch.push_back(item);
  }
  AssignOptions options;
  options.reserved_routes = reserved_routes_;
  options.failed_links = failed_links_;
  return assign_flows(batch, *cluster_, *routing_, options);
}

void IncrementalAssigner::adopt_assignment(
    const std::unordered_map<std::uint32_t, RouteMap>& warm) {
  std::fill(link_demand_.begin(), link_demand_.end(), 0.0);
  dirty_items_.clear();
  dirty_links_.clear();
  for (auto& [id, st] : items_) {
    st.contrib.clear();
    auto it = warm.find(id);
    if (it == warm.end() && !st.flows.empty()) {
      // Live item the adopted assignment knows nothing about (e.g. created
      // against a snapshot taken before it arrived): solve it next round.
      st.routes.clear();
      dirty_items_.insert(id);
      continue;
    }
    st.routes = it != warm.end() ? it->second : RouteMap{};
    for (const PendingFlow& f : st.flows) {
      auto rit = st.routes.find(f.route_key);
      if (rit == st.routes.end()) continue;
      for (LinkId l : routing_->paths(f.src, f.dst)[rit->second.get()]) {
        link_demand_[l.get()] += f.demand;
        st.contrib.emplace_back(l.get(), f.demand);
      }
    }
  }
}

void IncrementalAssigner::maybe_audit(IncrementalSolveStats& stats) {
  if (audit_.period == 0) return;
  const std::uint64_t h =
      mix_u64(audit_.seed ^ (solve_count_ * 0x9e3779b97f4a7c15ull));
  if (h % audit_.period != 0) return;
  stats.audited = true;
  ++audit_runs_;
  if (audit_metrics_ != nullptr) {
    audit_metrics_->counter("policy_audit_runs_total").increment();
  }
  const auto full = full_resolve();
  if (assignment_digest(full) == assignment_digest(assignments())) return;
  ++audit_mismatches_;
  ++fallbacks_;
  if (audit_metrics_ != nullptr) {
    audit_metrics_->counter("policy_audit_mismatch_total").increment();
    audit_metrics_->counter("policy_fallback_total").increment();
  }
  adopt_assignment(full);
  stats.fell_back = true;
}

void IncrementalAssigner::invalidate_all() {
  std::fill(link_demand_.begin(), link_demand_.end(), 0.0);
  dirty_links_.clear();
  dirty_items_.clear();
  for (auto& [id, st] : items_) {
    st.contrib.clear();
    st.routes.clear();
    dirty_items_.insert(id);
  }
  ++fallbacks_;
  if (audit_metrics_ != nullptr) {
    audit_metrics_->counter("policy_fallback_total").increment();
  }
}

bool IncrementalAssigner::debug_poison_state(std::uint64_t seed) {
  std::vector<std::uint32_t> candidates;
  for (const auto& [id, st] : items_) {
    if (st.routes.empty()) continue;  // unsolved items have nothing to skew
    for (const PendingFlow& f : st.flows) {
      if (routing_->paths(f.src, f.dst).size() > 1) {
        candidates.push_back(id);
        break;
      }
    }
  }
  if (candidates.empty()) return false;
  const std::uint32_t victim_id =
      candidates[mix_u64(seed ^ 0x9e3779b97f4a7c15ull) % candidates.size()];
  ItemState& st = items_.at(victim_id);
  // Re-place every multi-path flow on the next-index route, keeping the
  // demand map and contrib list consistent with the (now wrong) routes: the
  // state stays internally coherent, so nothing short of an audit or a cold
  // rebuild will ever notice.
  for (const auto& [link, demand] : st.contrib) link_demand_[link] -= demand;
  st.contrib.clear();
  for (const PendingFlow& f : st.flows) {
    const auto& paths = routing_->paths(f.src, f.dst);
    auto rit = st.routes.find(f.route_key);
    if (rit == st.routes.end()) continue;
    const std::uint32_t r = static_cast<std::uint32_t>(
        (rit->second.get() + 1) % static_cast<std::uint32_t>(paths.size()));
    rit->second = RouteId{r};
    for (LinkId l : paths[r]) {
      link_demand_[l.get()] += f.demand;
      st.contrib.emplace_back(l.get(), f.demand);
    }
  }
  return true;
}

double IncrementalAssigner::total_link_demand() const {
  double total = 0.0;
  for (double d : link_demand_) total += d;
  return total;
}

const RouteMap& IncrementalAssigner::routes_of(CommId comm) const {
  auto it = items_.find(comm.get());
  MCCS_EXPECTS(it != items_.end());
  return it->second.routes;
}

std::unordered_map<std::uint32_t, RouteMap> IncrementalAssigner::assignments()
    const {
  std::unordered_map<std::uint32_t, RouteMap> out;
  out.reserve(items_.size());
  for (const auto& [id, st] : items_) out[id] = st.routes;
  return out;
}

double measure_assign_seconds(const std::vector<AssignItem>& items,
                              const cluster::Cluster& cluster,
                              const net::Routing& routing) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = assign_flows(items, cluster, routing);
  const auto t1 = std::chrono::steady_clock::now();
  // Keep the result alive past the clock read.
  volatile std::size_t sink = result.size();
  (void)sink;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace mccs::policy
