#pragma once
// Flow assignment policies (§4.3, examples #2 and #3).
//
// Once ring configurations are fixed, the set of inter-host flows (one RDMA
// connection per channel per ring edge) is fully determined. ECMP may hash
// several of them onto the same physical path; the provider instead assigns
// each flow an explicit route:
//
//  * FFA (best-fit fair flow assignment) — Hedera-style greedy: each flow is
//    placed on the path with minimal excess bandwidth demand, round-robining
//    between applications for fairness;
//  * PFA (priority flow assignment) — some routes are reserved for
//    high-priority applications: low-priority flows are fitted using only
//    non-reserved routes; high-priority flows pick the best route from all.

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/ids.h"
#include "common/units.h"
#include "mccs/strategy.h"
#include "netsim/routing.h"
#include "telemetry/telemetry.h"

namespace mccs::net {
class Network;
}

namespace mccs::policy {

/// One communicator whose flows need placement.
struct AssignItem {
  CommId comm;
  AppId app;
  const std::vector<GpuId>* gpus_by_rank = nullptr;
  const svc::CommStrategy* strategy = nullptr;
  bool high_priority = false;  ///< PFA only
};

struct AssignOptions {
  /// Route indices reserved for high-priority apps (PFA). Empty => plain FFA.
  std::unordered_set<std::uint32_t> reserved_routes;

  /// Live network telemetry. When set, best-fit scoring adds each candidate
  /// link's measured throughput (an O(1) read of the Network's per-link
  /// index) to the modelled demand, so the assignment steers around traffic
  /// the demand model cannot see — chiefly background/external flows (the
  /// Fig.-7 scenario). Collectives being reassigned are typically mid-flight,
  /// so their own live rates inflate every candidate of every path they
  /// already use; the demand model remains the primary signal and the live
  /// term breaks its ties. Null (default) preserves the pure-demand scoring.
  const net::Network* network = nullptr;

  /// Links the controller has confirmed failed (by LinkId value). Paths
  /// crossing any of them are excluded from best-fit placement; if EVERY
  /// path between a pair crosses a failed link (no surviving route), the
  /// exclusion is dropped for that flow — transport-level retry remains the
  /// only recourse there.
  std::unordered_set<std::uint32_t> failed_links;

  /// Fabric telemetry + the virtual time of this assignment run. When the
  /// timeline is enabled, every placement decision drops an instant event
  /// (policy category) carrying the chosen route and its best-fit score.
  telemetry::Telemetry* telemetry = nullptr;
  Time now = 0.0;
};

/// Route map per communicator: CommStrategy::route_key -> RouteId.
using RouteMap = std::unordered_map<std::uint64_t, RouteId>;

/// Order-insensitive FNV-1a digest of a full assignment (comms ascending,
/// route keys ascending within each comm; comms with no routed flows are
/// skipped, so the one-shot solver's map shape and the warm assigner's
/// agree). The canonical "same assignment" check for benches, audits, and
/// the chaos invariants — two assignments digest equal iff their routed
/// flows match exactly.
std::uint64_t assignment_digest(
    const std::unordered_map<std::uint32_t, RouteMap>& assignment);
/// Fold `v` into a running FNV-1a digest `h` (seed with kFnvOffset).
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
void fold_digest(std::uint64_t& h, std::uint64_t v);

/// Compute explicit routes for every inter-host connection of every item.
/// Deterministic: same input, same placement.
std::unordered_map<std::uint32_t, RouteMap> assign_flows(
    const std::vector<AssignItem>& items, const cluster::Cluster& cluster,
    const net::Routing& routing, const AssignOptions& options = {});

/// Wall-clock cost of one assign_flows run, for the §6.5 claim that schedule
/// computation stays around a millisecond and scales linearly with job size.
double measure_assign_seconds(const std::vector<AssignItem>& items,
                              const cluster::Cluster& cluster,
                              const net::Routing& routing);

/// One inter-host connection awaiting a route — the unit both solvers place.
struct PendingFlow {
  std::size_t item_index = 0;  ///< position in the one-shot batch (unused by
                               ///< the incremental solver, which keys by comm)
  std::uint64_t route_key = 0; ///< CommStrategy::route_key(channel, src, dst)
  NodeId src;
  NodeId dst;
  Bandwidth demand = 0.0;  ///< natural demand (the sender NIC's uplink rate)
  bool high_priority = false;
};

/// Enumerate one item's inter-host connections in drain order (ring
/// successors per channel / tree edges / pairwise mesh) — the flow set both
/// solvers place. Public so harnesses modelling per-flow goodput see exactly
/// the flows the assigner routed.
std::vector<PendingFlow> enumerate_flows(const AssignItem& item,
                                         const cluster::Cluster& cluster);

/// What one IncrementalAssigner::solve actually did, for decision-latency
/// accounting: how much of the cluster the dirty closure touched versus the
/// total, and how many flows were re-placed.
struct IncrementalSolveStats {
  std::size_t live_items = 0;      ///< communicators known to the assigner
  std::size_t solved_items = 0;    ///< communicators inside the dirty closure
  std::size_t flows_resolved = 0;  ///< flows re-placed by this solve
  std::size_t links_touched = 0;   ///< links visited by the dirty closure
  bool audited = false;            ///< this solve ran the sampled audit
  bool fell_back = false;          ///< audit found stale state; full rebuild ran
};

/// Warm-started incremental FFA/PFA.
///
/// assign_flows() above re-runs the full greedy over every live communicator
/// on every control-plane event — O(cluster), even when the event touches one
/// rack. This class keeps the greedy's state (per-link demand, every item's
/// chosen routes) alive across events and re-solves only the *dirty
/// closure*: the connected component(s) of the candidate-link interference
/// graph — items joined through any link that appears on any candidate path
/// of any of their flows — containing a changed item or link. It is the
/// policy-layer twin of the netsim's component-scoped max-min reallocation.
///
/// Identity contract: after solve(), the stored assignment is bitwise
/// identical to a from-scratch assign_flows() over the live items in
/// ascending-CommId order with the same options (the order
/// Controller::compute_routes produces). The greedy's score for a flow reads
/// only link demands on the flow's candidate paths, and candidate-disjoint
/// items place demand on disjoint links, so the full greedy factors over
/// interference components; re-running exactly the dirty components with the
/// component-local round-robin (ascending CommId, one flow per item per
/// cycle — the restriction of the global drain order) reproduces the full
/// result. tests/test_incremental_assign.cpp property-checks this over
/// randomized event streams.
///
/// Deliberately unsupported: AssignOptions::network (live-telemetry tie
/// breaking). Live link throughput changes continuously, so *every* item
/// would be dirty at every solve and warm starting could never skip work;
/// callers that want telemetry-steered scoring use the one-shot solver.
class IncrementalAssigner {
 public:
  IncrementalAssigner(const cluster::Cluster& cluster,
                      const net::Routing& routing);

  // --- policy configuration ---------------------------------------------------
  /// Route indices reserved for high-priority items (PFA). A change dirties
  /// every item (reservation shifts every score), so flip it rarely.
  void set_reserved_routes(std::unordered_set<std::uint32_t> routes);
  /// Confirmed-failed links (LinkId values). Diffed against the previous
  /// set: only items whose candidate paths cross a changed link re-solve.
  void set_failed_links(const std::unordered_set<std::uint32_t>& failed);
  /// Placement-decision instants land on this timeline when enabled (same
  /// events assign_flows emits). Null disables.
  void set_telemetry(telemetry::Telemetry* t) { telemetry_ = t; }

  // --- divergence audit --------------------------------------------------------
  /// Self-healing safety net for the warm state. Warm re-solves are proven
  /// assignment-identical to the full greedy — but only while the assigner's
  /// internal demand/route state is in sync with reality. A fault landing
  /// mid-dirty-closure, a missed change-log entry, or a memory-corrupting
  /// bug leaves the state *stale*: internally coherent, silently wrong. The
  /// audit samples solves (seeded, so a seed sweep audits different solves
  /// per seed but each run is deterministic): an audited solve re-runs the
  /// full one-shot greedy over the live items and digests both assignments.
  /// On mismatch the assigner falls back — it adopts the full result and
  /// rebuilds its warm demand state from it — so one audit hit heals every
  /// consequence of the staleness.
  struct AuditOptions {
    /// Expected solves between audits (0 disables). The audit fires when a
    /// splitmix64 hash of (seed, solve index) lands in a 1/period window,
    /// so audits are spread rather than phase-locked to the event stream.
    std::uint32_t period = 0;
    std::uint64_t seed = 0;
  };
  /// Configure the audit; counters land in `metrics` (may be null):
  /// policy_audit_runs_total / policy_audit_mismatch_total /
  /// policy_fallback_total.
  void set_audit(const AuditOptions& options,
                 telemetry::MetricsRegistry* metrics = nullptr);
  [[nodiscard]] std::uint64_t audit_runs() const { return audit_runs_; }
  [[nodiscard]] std::uint64_t audit_mismatches() const {
    return audit_mismatches_;
  }
  [[nodiscard]] std::uint64_t fallbacks() const { return fallbacks_; }

  /// Throw away all warm state (demand map, every item's routes) and mark
  /// every item dirty: the next solve() is a from-scratch re-solve that
  /// rebuilds the warm start. The recovery entry point for controller
  /// restarts that cannot replay the change log (trimmed history) and for
  /// any caller that knows the warm state is stale.
  void invalidate_all();

  /// Adopt `warm` as the stored assignment and rebuild the warm demand state
  /// (link_demand_, per-item contrib) from it. Items covered by `warm` (and
  /// items with no inter-host flows) come out clean; a live item with flows
  /// but no entry stays dirty for the next solve. The audit fallback feeds
  /// this the full greedy's output; controller restart feeds it a snapshot.
  void adopt_assignment(
      const std::unordered_map<std::uint32_t, RouteMap>& warm);

  /// Test hook: make the stored assignment stale while keeping the internal
  /// demand state self-consistent with it — exactly the failure mode the
  /// audit exists to catch (no dirt is raised, so without an audit the
  /// staleness persists silently). Reroutes every multi-path flow of the
  /// seeded victim item to the next-index route. Returns false when no item
  /// has a multi-path flow to corrupt.
  bool debug_poison_state(std::uint64_t seed);

  /// Sum of the warm per-link demand map (0 iff no item holds placed
  /// demand) — the chaos harness's orphaned-reservation check.
  [[nodiscard]] double total_link_demand() const;

  // --- event API ---------------------------------------------------------------
  /// Register a communicator (copies its GPU list and strategy; the item is
  /// dirty until the next solve). The comm id must not be live here.
  void add_item(const AssignItem& item);
  /// Drop a communicator (departure / kill). Links it loaded become dirty.
  void remove_item(CommId comm);
  /// Flip an item's PFA priority in place (pass order changes, so its whole
  /// component re-solves). No-op when the flag already matches.
  void set_high_priority(CommId comm, bool high_priority);
  /// Replace a live item's strategy (the controller's algorithm-swap path).
  /// When the change alters the compiled flow shape — algorithm, channel
  /// orders, or the pairwise-mesh flag — the item is re-registered: its old
  /// demand comes off (dirtying the links it loaded), its flow list and
  /// candidate footprint are rebuilt from the new edge list, and the item
  /// re-solves at the next solve(). Shape-neutral changes (routes, tree
  /// pipeline chunks) just refresh the stored copy. Returns whether the
  /// flow shape changed.
  bool update_strategy(CommId comm, const svc::CommStrategy& strategy);
  /// Mark a link changed (the netsim change-set feed: state transitions,
  /// capacity rescales). Items whose candidate paths cross it re-solve.
  void mark_link_dirty(LinkId link);

  [[nodiscard]] bool has_item(CommId comm) const {
    return items_.count(comm.get()) > 0;
  }
  [[nodiscard]] std::size_t item_count() const { return items_.size(); }
  [[nodiscard]] bool item_high_priority(CommId comm) const;
  /// Live communicator ids, ascending (for diffing against a registry).
  [[nodiscard]] std::vector<CommId> item_ids() const;

  // --- solve -------------------------------------------------------------------
  /// Re-solve the dirty closure (no-op when nothing is dirty). `now` stamps
  /// telemetry instants only.
  IncrementalSolveStats solve(Time now = 0.0);

  /// Current routes of one live communicator (valid after solve()).
  [[nodiscard]] const RouteMap& routes_of(CommId comm) const;
  /// Snapshot of every live communicator's routes, in assign_flows' result
  /// shape (for cross-validation against the one-shot solver).
  [[nodiscard]] std::unordered_map<std::uint32_t, RouteMap> assignments() const;

 private:
  struct ItemState {
    AppId app{};
    bool high_priority = false;
    std::vector<GpuId> gpus;
    svc::CommStrategy strategy;
    std::vector<PendingFlow> flows;             ///< enumeration order = drain order
    std::vector<std::uint32_t> candidate_links; ///< sorted unique, all paths
    RouteMap routes;
    /// (link, demand) actually added to link_demand_ by the last solve —
    /// subtracted before a re-solve and on removal.
    std::vector<std::pair<std::uint32_t, double>> contrib;
    std::uint64_t visit = 0;  ///< dirty-closure BFS epoch
  };

  void seed_links_dirty(const std::vector<std::uint32_t>& links);
  /// Expand dirty items/links to the full interference closure; returns the
  /// affected comm ids ascending and the visited-link count.
  std::vector<std::uint32_t> collect_closure(std::size_t* links_touched);
  /// Run the one-shot greedy over all live items with this assigner's
  /// options (the audit oracle).
  [[nodiscard]] std::unordered_map<std::uint32_t, RouteMap> full_resolve() const;
  /// Decide + run the sampled audit for solve index `solve_index`.
  void maybe_audit(IncrementalSolveStats& stats);

  const cluster::Cluster* cluster_;
  const net::Routing* routing_;
  std::unordered_set<std::uint32_t> reserved_routes_;
  std::unordered_set<std::uint32_t> failed_links_;
  telemetry::Telemetry* telemetry_ = nullptr;

  AuditOptions audit_;
  telemetry::MetricsRegistry* audit_metrics_ = nullptr;
  std::uint64_t solve_count_ = 0;   ///< solves that re-solved something
  std::uint64_t audit_runs_ = 0;
  std::uint64_t audit_mismatches_ = 0;
  std::uint64_t fallbacks_ = 0;

  /// Live items, ordered by comm id — the canonical greedy order.
  std::map<std::uint32_t, ItemState> items_;
  std::vector<double> link_demand_;                    ///< by LinkId
  std::vector<std::vector<std::uint32_t>> link_items_; ///< LinkId -> comm ids
  std::unordered_set<std::uint32_t> dirty_items_;
  std::vector<std::uint32_t> dirty_links_;
  std::vector<std::uint64_t> link_visit_;  ///< BFS epoch marks, by LinkId
  std::uint64_t visit_epoch_ = 0;

  // Scratch reused across solves: one dense own-demand vector per solved
  // item, zeroed lazily through its touched list.
  std::vector<std::vector<double>> own_pool_;
  std::vector<std::vector<std::uint32_t>> own_touched_;
};

}  // namespace mccs::policy
