#pragma once
// Flow-level network simulation.
//
// The Network owns the set of active flows and allocates bandwidth with
// weighted max-min fairness (progressive filling), the same model the paper's
// large-scale simulator uses ("our flow-level simulator assumes per-flow
// fairness", §6.5). Rates change only when the flow set changes — flow
// start, completion, cancellation, pause/resume (used by the traffic-
// scheduling QoS policy), or a background-flow change — at which point
// completion events are rescheduled on the EventLoop.
//
// Two flow classes:
//  * normal flows — carry a finite number of bytes; max-min fair share.
//  * background flows — model non-collective traffic (e.g., the 75 Gbps
//    flow in Fig. 7). They demand a fixed rate with strict priority over
//    normal flows, mirroring how external traffic appears to a tenant.
//
// Scaling: per-event cost is proportional to the *bottleneck component* of
// the changed flow, not the whole flow set. The Network maintains a per-link
// index (flow members, Σrate, normal-flow count), so a flow-set change only
// re-solves max-min over the flows transitively sharing a link with the
// changed flow; all other flows keep their rates and — critically — their
// already-scheduled completion events. Progress is integrated lazily per
// flow (`last_update`), so unaffected flows pay nothing. The global solver
// remains available as a cross-validation oracle via
// `Options::incremental = false`; both paths order flows identically
// (ascending id), so they produce bit-identical rates on disjoint
// components (see tests/test_netsim_properties.cpp).
//
// Storage (DESIGN.md §12): flow state lives in a slab of reusable slots
// (same idiom as sim::EventLoop), split into a hot SoA section — the four
// fields every solve touches, in dense parallel arrays — and a cold section
// (FlowSpec with its callbacks, telemetry fields, event handles) read only
// at flow boundaries. Flow ids are a monotone sequence that is never reused,
// so a stale id can never alias a recycled slot; `id_to_slot_` maps ids to
// live slots (or nothing). Paths are interned into a chunked link-id arena
// with stable addresses and referenced by PathView — flows on the same
// cached route share one copy. Per-link membership removal is O(path) via
// per-(flow,link) backpointers instead of a scan. At steady state (warm
// slab, warm scratch) a start/complete cycle performs no heap allocation in
// `reallocate` (guarded by tests/test_netsim_slab.cpp).

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "netsim/routing.h"
#include "netsim/topology.h"
#include "sim/event_loop.h"
#include "telemetry/telemetry.h"

namespace mccs::net {

struct FlowSpec {
  NodeId src;
  NodeId dst;
  Bytes size = 0;  ///< Payload bytes; ignored for background flows.

  /// Explicit path selector; invalid() means the switch applies ECMP hashing
  /// of `ecmp_key` (the multi-tenant-cloud default).
  RouteId route{};
  std::uint64_t ecmp_key = 0;

  /// Per-flow rate cap, e.g. a 50 Gbps virtual NIC (IB traffic-class rate
  /// limit in the testbed). Infinity = uncapped.
  Bandwidth rate_cap = std::numeric_limits<Bandwidth>::infinity();

  /// Fairness weight (per-flow fairness => 1.0).
  double weight = 1.0;

  /// Fixed delay before bytes start moving (propagation + connection setup).
  Time start_latency = 0.0;

  /// Background flow: demands `background_demand` bytes/s forever with
  /// strict priority; `size` and completion callbacks are unused.
  Bandwidth background_demand = 0.0;

  // Metadata consumed by policies / tracing.
  AppId app{};
  JobId job{};

  /// Invoked from the event loop when the last byte is delivered.
  std::function<void(FlowId, Time)> on_complete;
};

/// Administrative state of a physical link (fault injection). A down link
/// contributes zero capacity: flows crossing it keep their bytes and simply
/// stall at rate zero (no completion event) until the link recovers or the
/// flow is cancelled — never a silent completion. A degraded link keeps a
/// fraction of its nominal capacity; the rescale flows through the same
/// incremental max-min path as any other flow-set change.
enum class LinkState { kUp, kDegraded, kDown };

/// One administrative link-state transition, in the order it was applied.
/// The bounded log lets control-plane consumers (the incremental flow
/// assigner) learn exactly which links changed since their last look —
/// a change-set export, so re-solve work scales with events, not links.
struct LinkChange {
  LinkId link{};
  LinkState state = LinkState::kUp;
  double capacity_fraction = 1.0;
  Time at = 0.0;
};

/// Structured outcome of a max-min solve that could not make progress (a
/// pathological capacity state, e.g. a weight so small the share-per-weight
/// overflows). The affected flows are pinned at rate zero — degrading the
/// tenants that own them — instead of killing the whole multi-tenant service
/// with a contract violation.
struct AllocationError {
  Time at = 0.0;
  std::vector<FlowId> flows;  ///< pinned at rate zero, ascending id
};

class Network {
 public:
  struct Options {
    /// Component-scoped reallocation (the fast path). Off = re-solve the
    /// global max-min program on every flow-set change — the reference
    /// oracle the property tests cross-validate against.
    bool incremental = true;
    /// Same-instant solve coalescing: begin_batch()/end_batch() defer the
    /// per-mutation re-solve and run one union solve at batch close, and
    /// latent flows sharing an exact activation instant activate through one
    /// cohort event inside an internal batch. Semantically identical (zero
    /// virtual time elapses between the deferred mutations, so the skipped
    /// intermediate rate states transfer zero bytes — see DESIGN.md §15).
    /// Off = every batch is a no-op and activations stay per-flow events:
    /// the unbatched column the coalescing property tests and the bench's
    /// solves-per-event comparison run against.
    bool coalesce = true;
  };

  Network(sim::EventLoop& loop, const Topology& topo)
      : Network(loop, topo, Options{}) {}

  Network(sim::EventLoop& loop, const Topology& topo, Options options)
      : loop_(&loop),
        topo_(&topo),
        routing_(topo),
        options_(options),
        links_(topo.link_count()),
        link_states_(topo.link_count(), LinkState::kUp),
        capacity_scale_(topo.link_count(), 1.0),
        link_mark_(topo.link_count(), 0),
        batch_link_mark_(topo.link_count(), 0),
        residual_(topo.link_count(), 0.0),
        weight_scratch_(topo.link_count(), 0.0),
        uf_parent_(topo.link_count(), 0),
        link_bytes_(topo.link_count(), 0.0),
        link_sample_time_(topo.link_count(), 0.0) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const Routing& routing() const { return routing_; }
  [[nodiscard]] sim::EventLoop& loop() { return *loop_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Pre-size the flow slab and per-event scratch so a scale run (or the
  /// zero-allocation guard test) reaches steady state without growth:
  /// `concurrent` bounds simultaneously-live flows, `lifetime` bounds flow
  /// ids ever issued. Optional — the structures grow on demand otherwise.
  void reserve_flows(std::size_t concurrent, std::size_t lifetime);

  /// Per-flow-state slab cost in bytes, by temperature class: `hot` is the
  /// SoA touched every rate solve (remaining / rate / last_update / mark),
  /// `param` the per-flow solve parameters (path view, caps, weight, flags),
  /// `cold` everything touched only at start/completion (spec, timestamps,
  /// event handles). Compile-time facts surfaced for the scale bench, which
  /// reports bytes-per-flow-state alongside events/s.
  struct StorageFootprint {
    std::size_t hot = 0;
    std::size_t param = 0;
    std::size_t cold = 0;
    [[nodiscard]] std::size_t total() const { return hot + param + cold; }
  };
  [[nodiscard]] static StorageFootprint flow_state_footprint();

  // --- batched-mutation epochs ----------------------------------------------
  // A solve batch coalesces every flow-set mutation issued at one virtual
  // instant into a single component discovery + max-min solve at batch
  // close. Inside a batch, start/cancel/pause/resume/set_link_state apply
  // their structural change immediately (indexes, the link-change log,
  // tombstones) but defer the re-solve, accumulating the union of dirty
  // seed links; rates read mid-batch are the pre-batch ones. Batches nest
  // (the outermost close solves) and MUST NOT span virtual time: the
  // zero-elapsed-time identity argument — intermediate rates transfer zero
  // bytes, and completion events scheduled mid-batch would be superseded by
  // the final solve — only holds at one instant, so end_batch checks the
  // clock did not move. An empty batch (no deferred mutation) solves
  // nothing. With Options::coalesce off both calls are no-ops.

  void begin_batch();
  void end_batch();

  /// RAII batch scope: `Network::SolveBatch batch(net);` around a burst of
  /// same-instant mutations (a collective launch, a mass cancel, a fault
  /// epoch).
  class SolveBatch {
   public:
    explicit SolveBatch(Network& net) : net_(&net) { net_->begin_batch(); }
    ~SolveBatch() { net_->end_batch(); }
    SolveBatch(const SolveBatch&) = delete;
    SolveBatch& operator=(const SolveBatch&) = delete;

   private:
    Network* net_;
  };

  /// Max-min solves actually run (each allocate_component pass). Mirrored to
  /// the metrics registry as `netsim_solves_total` when telemetry is
  /// attached. With coalescing, a batch of N same-instant mutations pays 1.
  [[nodiscard]] std::uint64_t solves_total() const { return solves_total_; }
  /// Mutations whose re-solve was absorbed into a batch-close union solve
  /// (registry name: `netsim_coalesced_flows_total`).
  [[nodiscard]] std::uint64_t coalesced_flows_total() const {
    return coalesced_flows_total_;
  }
  /// Non-empty batch closes (mean batch width = coalesced / batches).
  [[nodiscard]] std::uint64_t batches_total() const { return batches_total_; }

  /// Start a flow; the path is resolved immediately (route id or ECMP).
  FlowId start_flow(FlowSpec spec);

  /// Cancel a flow (e.g., tearing down peer-to-peer connections during a
  /// reconfiguration). No completion callback fires.
  void cancel_flow(FlowId id);

  /// Gate a flow off/on without losing progress (traffic-scheduling QoS).
  void pause_flow(FlowId id);
  void resume_flow(FlowId id);

  /// Liveness by id. Ids are never reused, so a cancelled/completed flow's id
  /// stays dead forever even after its slab slot is recycled. O(1).
  [[nodiscard]] bool flow_active(FlowId id) const {
    return slot_of(id.get()) != kNoSlot;
  }
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const;
  [[nodiscard]] Bytes flow_remaining(FlowId id) const;
  /// View of the flow's path in the shared link-id arena. Stable for the
  /// lifetime of the Network (paths are interned, never freed); copy with
  /// `.to_path()` for consumers that outlive it.
  [[nodiscard]] PathView flow_path(FlowId id) const;
  [[nodiscard]] const FlowSpec& flow_spec(FlowId id) const;
  [[nodiscard]] std::size_t active_flow_count() const { return live_count_; }
  /// All live flow ids, ascending (diagnostics / debug dumps). Served by
  /// walking the slab's live list, which is insertion-ordered — and insertion
  /// order is id order because ids are monotone. No sort, no hashing.
  [[nodiscard]] std::vector<FlowId> active_flows() const;

  // --- fault injection -------------------------------------------------------
  /// Administratively change a link's state. kDegraded keeps
  /// `capacity_fraction` (in (0, 1]) of the nominal capacity; kDown drops it
  /// to zero (flows crossing the link stall); kUp restores it. Rates of the
  /// affected bottleneck component are recomputed immediately.
  void set_link_state(LinkId id, LinkState state, double capacity_fraction = 1.0);
  [[nodiscard]] LinkState link_state(LinkId id) const {
    MCCS_EXPECTS(id.get() < link_states_.size());
    return link_states_[id.get()];
  }
  [[nodiscard]] double link_capacity_fraction(LinkId id) const {
    MCCS_EXPECTS(id.get() < capacity_scale_.size());
    return capacity_scale_[id.get()];
  }

  // --- link-change log -------------------------------------------------------
  // Every effective set_link_state in application order (no-op calls are not
  // logged), addressed by a monotone absolute index that survives trimming.
  // Consumers register a cursor and acknowledge what they have processed;
  // entries acknowledged by *every* consumer are trimmed in batches, so the
  // log's memory is bounded by the slowest consumer's lag (soak-tested over
  // ~10k flaps). With no registered consumer the log is kept whole, so a
  // consumer that registers late (the controller enables incremental mode
  // mid-run) still observes every change since construction.

  /// Register a consumer whose cursor starts at the oldest retained entry.
  [[nodiscard]] int register_link_change_consumer();

  /// A cursor-resume request that landed below the oldest retained entry:
  /// the history between `requested` and `earliest` was trimmed away, so a
  /// warm resume is impossible. Returned (never silently absorbed) so the
  /// consumer can rebuild from scratch instead of replaying with a gap.
  struct TrimmedHistory {
    std::size_t requested = 0;  ///< the cursor the consumer asked for
    std::size_t earliest = 0;   ///< oldest absolute index still retained
  };
  struct LinkChangeRegistration {
    int consumer = -1;  ///< valid only when !trimmed
    bool trimmed = false;
    TrimmedHistory gap;  ///< meaningful only when trimmed
    [[nodiscard]] bool ok() const { return !trimmed; }
  };
  /// Register a consumer resuming at an absolute cursor (crash/restart
  /// recovery: the cursor comes from the dead consumer's snapshot). Succeeds
  /// iff every entry from `cursor` onward is still retained; otherwise the
  /// registration is REFUSED with the trimmed-history gap — the caller must
  /// rebuild its derived state cold rather than replay across a hole.
  /// `cursor` may not exceed link_change_end().
  [[nodiscard]] LinkChangeRegistration register_link_change_consumer_at(
      std::size_t cursor);
  /// Release a consumer's cursor (clean shutdown or lease expiry after a
  /// crash) so it no longer pins the log against trimming. The consumer id
  /// is dead afterwards; released slots are never reused.
  void unregister_link_change_consumer(int consumer);
  /// One past the newest change's absolute index.
  [[nodiscard]] std::size_t link_change_end() const {
    return link_change_base_ + link_changes_.size();
  }
  /// Entry by absolute index; must be >= the consumer's acknowledged cursor
  /// (trimming never outruns the slowest cursor).
  [[nodiscard]] const LinkChange& link_change(std::size_t abs_index) const {
    MCCS_EXPECTS(abs_index >= link_change_base_ &&
                 abs_index < link_change_end());
    return link_changes_[abs_index - link_change_base_];
  }
  /// The consumer's acknowledged cursor — the absolute index to resume from.
  [[nodiscard]] std::size_t link_change_cursor(int consumer) const {
    MCCS_EXPECTS(consumer >= 0 && static_cast<std::size_t>(consumer) <
                                      link_change_cursors_.size());
    MCCS_EXPECTS(link_change_cursors_[static_cast<std::size_t>(consumer)] !=
                 kReleasedCursor);
    return link_change_cursors_[static_cast<std::size_t>(consumer)];
  }
  /// Mark entries below `upto` as processed by `consumer`; may trim.
  void ack_link_changes(int consumer, std::size_t upto);
  /// Entries currently held in memory (bounded-growth soak assertions).
  [[nodiscard]] std::size_t link_changes_retained() const {
    return link_changes_.size();
  }

  /// Observer for unsatisfiable allocations (see AllocationError). Invoked
  /// from a fresh event-loop event, so the handler may start/cancel flows.
  void set_allocation_error_handler(std::function<void(const AllocationError&)> h) {
    allocation_error_handler_ = std::move(h);
  }
  [[nodiscard]] std::uint64_t allocation_error_count() const {
    return allocation_error_count_;
  }

  /// Instantaneous throughput over a link (sum of flow rates), for the
  /// provider's monitoring plane. O(1): served from the per-link index.
  [[nodiscard]] Bandwidth link_throughput(LinkId id) const {
    MCCS_EXPECTS(id.get() < links_.size());
    return links_[id.get()].throughput;
  }

  /// Number of normal (non-background) flows currently traversing a link.
  /// O(1): served from the per-link index.
  [[nodiscard]] std::size_t link_flow_count(LinkId id) const {
    MCCS_EXPECTS(id.get() < links_.size());
    return links_[id.get()].normal_count;
  }

  /// Attach fabric telemetry: flow-lifetime spans and per-link allocated-rate
  /// counter samples land on the timeline when it is enabled. The utilization
  /// integral behind link_bytes() is maintained regardless (it only reads the
  /// throughput the solver already computed, so it cannot perturb the sim).
  /// Also binds the always-live `netsim_solves_total` /
  /// `netsim_coalesced_flows_total` registry counters.
  void set_telemetry(telemetry::Telemetry* t);

  /// Cumulative bytes carried by a link (allocated-rate integral up to now),
  /// for the provider's monitoring plane and telemetry snapshots.
  [[nodiscard]] double link_bytes(LinkId id) const {
    MCCS_EXPECTS(id.get() < links_.size());
    return link_bytes_[id.get()] +
           links_[id.get()].throughput * (loop_->now() - link_sample_time_[id.get()]);
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Cold per-flow state: read at flow boundaries (start / completion /
  /// cancel / telemetry), never inside a solve.
  /// Sentinel for "no completion scheduled" in FlowCold::completion_at.
  static constexpr Time kNoCompletion = std::numeric_limits<Time>::infinity();

  struct FlowCold {
    FlowSpec spec;
    Time created = 0.0;  ///< start_flow time (telemetry span begin)
    /// The instant the flow's completion is scheduled at (bit pattern of the
    /// queued event's time), or kNoCompletion. A solve that re-derives the
    /// flow's rate at exactly this instant treats the flow as done instead
    /// of re-integrating its remaining bytes: `now + rem/rate` rounds, so
    /// integrating back rarely recovers exactly zero, and without the clamp
    /// an unrelated same-instant mutation would push the completion one ulp
    /// past the instant the event queue already holds.
    Time completion_at = kNoCompletion;
    sim::EventLoop::Handle completion;
    sim::EventLoop::Handle activation;  ///< per-flow mode (coalesce off) only
    /// Cohort membership (coalesce on). A flow is in at most one cohort at a
    /// time, and the phase disambiguates what the key means: latent
    /// (!started) = activation cohort (key = activation-instant Time bits);
    /// started = completion cohort (key = pool index into
    /// completion_cohorts_). The two phases never overlap, so the fields are
    /// shared.
    std::uint64_t cohort_key = 0;
    bool in_cohort = false;  ///< member of an activation/completion cohort
  };

  /// Warm per-flow parameters: what component discovery and the solver need
  /// besides the hot arrays (path, class, weight/cap, gating state).
  struct FlowParam {
    PathView path;
    Bandwidth rate_cap = 0.0;
    double weight = 1.0;
    Bandwidth background_demand = 0.0;
    std::uint32_t seq = 0;   ///< external flow id (monotone, never reused)
    bool started = false;    ///< start_latency elapsed
    bool paused = false;
  };

  /// Per-link view of the allocatable flows crossing it, maintained on every
  /// flow add/remove/pause/resume and refreshed when rates change. `pos` is
  /// the member flow's hop index on its own path — the backpointer slot in
  /// link_pos_ that makes swap-removal O(1).
  struct LinkIndex {
    struct Member {
      std::uint32_t slot;
      std::uint32_t pos;
    };
    std::vector<Member> flows;  ///< allocatable members (both classes)
    Bandwidth throughput = 0.0; ///< Σ rate over `flows`
    std::size_t normal_count = 0;  ///< members with no background demand
  };

  [[nodiscard]] std::uint32_t slot_of(std::uint32_t id) const {
    return id < id_to_slot_.size() ? id_to_slot_[id] : kNoSlot;
  }
  [[nodiscard]] std::uint32_t checked_slot(std::uint32_t id) const {
    const std::uint32_t s = slot_of(id);
    MCCS_EXPECTS(s != kNoSlot);
    return s;
  }

  [[nodiscard]] bool allocatable(std::uint32_t slot) const {
    const FlowParam& p = param_[slot];
    return p.started && !p.paused;
  }

  /// Integrate a flow's progress up to `now` at its current rate.
  void touch(std::uint32_t slot, Time now) {
    if (now > hot_last_update_[slot] && param_[slot].background_demand <= 0.0) {
      hot_remaining_[slot] = std::max(
          0.0, hot_remaining_[slot] -
                   hot_rate_[slot] * (now - hot_last_update_[slot]));
    }
    hot_last_update_[slot] = now;
  }

  /// Copy `p` into the link-id arena (once per distinct routing-cache entry;
  /// the cache's Path addresses are stable, so identity-keying is sound).
  PathView intern_path(const Path& p);

  std::uint32_t acquire_slot();      ///< from the free list, else grown
  void release_slot(std::uint32_t slot);  ///< unlink, clear cold, recycle

  void insert_into_index(std::uint32_t slot);
  void remove_from_index(std::uint32_t slot);

  /// Gather the connected component of allocatable flows reachable from
  /// `seed` through shared links into comp_flows_ (slots, ascending flow id)
  /// and comp_links_. Reference mode gathers everything.
  void collect_component(PathView seed);
  void collect_all();

  /// Re-solve max-min over comp_flows_ / comp_links_ and apply: rates,
  /// link-index throughput, and completion events (kept when the rate is
  /// unchanged within kRateEpsilon).
  void allocate_component();

  /// Flow-set change entry point: scope to `seed`'s component (or everything
  /// in reference mode) and re-allocate — or, inside an open batch, merge
  /// `seed` into the pending union and defer the solve to batch close.
  /// Allocation-free at steady state.
  void reallocate(PathView seed);

  /// The undeferred body of reallocate (collect + allocate + count).
  void solve_now(PathView seed);

  void complete_flow(std::uint32_t id);
  void activate_flow(std::uint32_t id);
  /// Activate every surviving member of the cohort keyed by `key` (one
  /// virtual instant) inside an internal batch: one solve for the burst.
  void activate_cohort(std::uint64_t key);

  /// Turn the solve's deferred completion list (pending_completions_) into
  /// loop events: flows due at a bit-identical instant share one cohort
  /// event, the rest get the classic per-flow event. Coalesce mode only.
  void schedule_pending_completions();
  /// Remove `slot` from its completion cohort, if any (pause / cancel / rate
  /// change); a cohort whose last member leaves drops its event.
  void leave_completion_cohort(std::uint32_t slot);
  /// Complete every surviving member of completion cohort `idx` — in
  /// enrollment order, inside an internal batch: one solve for the whole
  /// same-instant completion cascade instead of one per flow.
  void drain_completion_cohort(std::uint32_t idx);

  void maybe_trim_link_changes();

  /// Timeline span for a flow that just left the network (delivered or
  /// cancelled). No-op unless telemetry is enabled.
  void emit_flow_span(std::uint32_t slot, bool completed);

  sim::EventLoop* loop_;
  const Topology* topo_;
  Routing routing_;
  Options options_;

  // --- flow slab -------------------------------------------------------------
  // Parallel arrays indexed by slot. Hot SoA section first: the fields every
  // solve reads/writes, kept dense so a component walk stays cache-resident.
  std::vector<double> hot_remaining_;    ///< bytes left as of last_update
  std::vector<Bandwidth> hot_rate_;
  std::vector<Time> hot_last_update_;    ///< when remaining was integrated
  std::vector<std::uint64_t> hot_mark_;  ///< component-BFS visit epoch
  std::vector<FlowParam> param_;
  std::vector<FlowCold> cold_;
  /// Backpointers: link_pos_[slot][k] = this flow's index in
  /// links_[path[k]].flows while the flow is in the index. The inner vectors
  /// are recycled with their slot, so a warm slab never reallocates them.
  std::vector<std::vector<std::uint32_t>> link_pos_;
  /// Insertion-ordered doubly-linked list of live slots (== ascending id).
  std::vector<std::uint32_t> live_next_;
  std::vector<std::uint32_t> live_prev_;
  std::uint32_t live_head_ = kNoSlot;
  std::uint32_t live_tail_ = kNoSlot;
  std::size_t live_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  /// External id -> slot (kNoSlot once the flow is gone). Ids are issued
  /// sequentially, so this is a flat array, not a hash.
  std::vector<std::uint32_t> id_to_slot_;
  std::uint32_t next_flow_id_ = 0;

  // --- path arena ------------------------------------------------------------
  static constexpr std::size_t kArenaBlockLinks = 4096;
  std::vector<std::unique_ptr<LinkId[]>> path_arena_;
  std::size_t arena_used_ = 0;  ///< links used in the newest block
  std::unordered_map<const Path*, PathView> path_intern_;

  std::vector<LinkIndex> links_;
  std::vector<LinkState> link_states_;
  std::vector<double> capacity_scale_;  ///< effective = nominal * scale

  // Bounded change-set export (see the link-change log section above).
  /// Sentinel for a released consumer slot: skipped by the min-ack trim scan
  /// and rejected by cursor reads/acks. Slots are never reused, so a stale
  /// consumer id from before a release fails loudly instead of aliasing.
  static constexpr std::size_t kReleasedCursor =
      static_cast<std::size_t>(-1);
  std::vector<LinkChange> link_changes_;
  std::size_t link_change_base_ = 0;  ///< absolute index of link_changes_[0]
  std::vector<std::size_t> link_change_cursors_;  ///< per-consumer acks

  std::function<void(const AllocationError&)> allocation_error_handler_;
  std::uint64_t allocation_error_count_ = 0;
  std::vector<std::uint32_t> unsatisfied_scratch_;

  // Scratch for component discovery + allocation (persistent to avoid O(L)
  // work per event; only entries for comp_links_ are ever read or written).
  std::vector<std::uint32_t> comp_flows_;  ///< slots, ascending flow id
  std::vector<std::uint32_t> comp_links_;
  std::vector<std::uint64_t> link_mark_;
  std::uint64_t epoch_ = 0;

  // --- batched-mutation epochs ----------------------------------------------
  // Deferred-solve state for an open batch. The dirty seed union is deduped
  // through its own mark array (link_mark_/epoch_ belong to
  // collect_component, which the batch-close solve itself consumes).
  int batch_depth_ = 0;
  Time batch_time_ = 0.0;           ///< outermost begin_batch instant
  std::size_t batch_pending_ = 0;   ///< deferred mutations in the open batch
  std::vector<LinkId> batch_seed_links_;
  std::vector<std::uint64_t> batch_link_mark_;
  std::uint64_t batch_epoch_ = 0;

  /// Latent flows grouped by exact activation instant (the Time's bit
  /// pattern): the first member schedules the one activation event — at the
  /// event-loop seq its own per-flow activation would have held — and the
  /// cohort activates every surviving member in one batch. `live` counts
  /// members not yet cancelled, so a fully-cancelled cohort drops its event
  /// from the loop just as per-flow cancellation would.
  struct ActivationCohort {
    std::vector<std::uint32_t> ids;  ///< external flow ids, in start order
    std::size_t live = 0;
    sim::EventLoop::Handle event;
  };
  std::unordered_map<std::uint64_t, ActivationCohort> activation_cohorts_;

  /// Flows one solve left due to complete at one exact instant (equal Time
  /// bit pattern — the symmetric-rate cascade), again replacing N
  /// same-instant loop events with one. Cohorts form per solve: a cross-solve
  /// bit collision simply yields two events at that instant, in solve order —
  /// exactly the per-flow insertion order. Members are erased from `ids`
  /// eagerly on leave (pause, cancel, rate change): enrollment order is the
  /// per-flow event insertion order and must stay exact. Records live in a
  /// high-water pool (cohort_key holds the pool index while enrolled) and the
  /// grouping/drain scratch persists, so steady-state churn allocates
  /// nothing.
  struct CompletionCohort {
    std::vector<std::uint32_t> ids;  ///< external flow ids, enrollment order
    sim::EventLoop::Handle event;
    bool draining = false;  ///< member list moved out; leave = flag reset only
  };
  std::vector<CompletionCohort> completion_cohorts_;  ///< pool, never shrunk
  std::vector<std::uint32_t> free_cohorts_;           ///< recycled pool slots
  struct PendingCompletion {
    std::uint64_t bits;  ///< completion-instant Time bit pattern (group key)
    std::uint32_t slot;
    Time at;
  };
  std::vector<PendingCompletion> pending_completions_;  ///< apply-order, per solve
  std::vector<std::uint32_t> pending_order_;            ///< grouping sort scratch
  std::vector<std::uint32_t> drain_ids_;                ///< drain walk scratch

  std::uint64_t solves_total_ = 0;
  std::uint64_t coalesced_flows_total_ = 0;
  std::uint64_t batches_total_ = 0;
  telemetry::Counter* solves_counter_ = nullptr;
  telemetry::Counter* coalesced_counter_ = nullptr;

  std::vector<Bandwidth> residual_;
  std::vector<double> weight_scratch_;

  // Disjoint sub-component partition of a collected flow set (union-find
  // over links + per-component apply cursors). Sub-components solve
  // independently and apply in ascending flow-id order (see
  // allocate_component). The SubComp pool is high-water sized: entries are
  // cleared, never shrunk, so their inner vectors keep their capacity across
  // events.
  struct AllocFlow {
    std::uint32_t slot;
    PathView path;
    double weight;
    Bandwidth cap;
    Bandwidth rate = 0.0;
    bool fixed = false;
  };
  struct SubComp {
    std::vector<AllocFlow> background;
    std::vector<AllocFlow> normal;
    std::vector<std::uint32_t> links;
    /// Contains a seed (mutated) link. Progress integration anchors only in
    /// dirty sub-components, so the anchor set — and therefore every
    /// remaining-bytes bit pattern — is a pure function of the mutation
    /// timeline, identical across incremental/reference collection and
    /// per-event/batched solve grouping (DESIGN.md §15).
    bool dirty = false;
  };
  std::vector<std::uint32_t> uf_parent_;
  std::vector<std::uint32_t> comp_roots_;
  std::vector<SubComp> comps_;
  /// Seed links of the in-flight solve (set by solve_now for the duration of
  /// allocate_component; used to mark dirty sub-components).
  PathView solve_seed_{};
  std::vector<std::size_t> comp_cursor_bg_;
  std::vector<std::size_t> comp_cursor_normal_;

  /// Weighted max-min fair allocation with per-flow caps (progressive
  /// filling), scoped to one bottleneck component (see network.cpp).
  static bool max_min_allocate(std::vector<AllocFlow>& flows,
                               std::vector<Bandwidth>& residual,
                               std::vector<double>& weight_on_link,
                               const std::vector<std::uint32_t>& links,
                               std::vector<std::uint32_t>& unsatisfied);

  // Link-utilization sampler: cumulative bytes as of `link_sample_time_`,
  // integrated from the allocated rate whenever a link's throughput is
  // refreshed (end of allocate_component touches exactly the changed links).
  telemetry::Telemetry* telemetry_ = nullptr;
  std::vector<double> link_bytes_;
  std::vector<Time> link_sample_time_;
  int flow_track_ = -1;  ///< lazily interned (enabled mode only)
  int link_track_ = -1;
  /// Counter series keys ("linkN"), built once when recording starts: the
  /// timeline retains keys by pointer, so they must stay at fixed addresses.
  std::vector<std::string> link_counter_names_;
  /// Index of the latest link_gbps counter sample (burst coalescing).
  std::size_t link_sample_event_ = telemetry::Timeline::kNoSample;
  /// Reused arg buffer for the batched per-reallocation counter sample.
  std::vector<telemetry::Arg> counter_scratch_;

  friend class NetworkTestPeer;  ///< white-box slab assertions in tests
};

}  // namespace mccs::net
