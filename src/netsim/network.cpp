#include "netsim/network.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

namespace mccs::net {
namespace {

constexpr double kRateEpsilon = 1e-9;  // bytes/s below which a rate is "zero"

// Acknowledged-by-everyone entries are trimmed from the link-change log in
// batches of this size (amortises the front erase).
constexpr std::size_t kLinkChangeTrimBatch = 1024;

}  // namespace

/// Weighted max-min fair allocation with per-flow caps (progressive filling),
/// scoped to one bottleneck component. `residual` and `weight_on_link` are
/// link-indexed scratch arrays owned by the caller; only entries for `links`
/// (the union of the flows' paths) are read or written, so the caller can
/// reuse them across calls without O(link_count) re-initialisation.
///
/// Returns true on a clean solve. A pathological capacity state (an
/// unconstrained flow, or an iteration that cannot fix anything) pins the
/// remaining unfixed flows at rate zero, appends their slots to
/// `unsatisfied`, and returns false — degrading those flows instead of
/// aborting the service.
bool Network::max_min_allocate(std::vector<AllocFlow>& flows,
                               std::vector<Bandwidth>& residual,
                               std::vector<double>& weight_on_link,
                               const std::vector<std::uint32_t>& links,
                               std::vector<std::uint32_t>& unsatisfied) {
  auto pin_unfixed_at_zero = [&flows, &unsatisfied] {
    for (AllocFlow& f : flows) {
      if (f.fixed) continue;
      f.rate = 0.0;
      f.fixed = true;
      unsatisfied.push_back(f.slot);
    }
    return false;
  };
  if (flows.empty()) return true;

  // Per-link unfixed weight sums.
  for (std::uint32_t l : links) weight_on_link[l] = 0.0;
  for (const AllocFlow& f : flows) {
    for (LinkId l : f.path) weight_on_link[l.get()] += f.weight;
  }

  std::size_t unfixed = flows.size();
  while (unfixed > 0) {
    // Find the tightest constraint: either a link's fair share-per-weight or
    // a flow's own cap-per-weight (the cap acts as a private pseudo-link).
    double best_share = std::numeric_limits<double>::infinity();
    for (const AllocFlow& f : flows) {
      if (f.fixed) continue;
      for (LinkId l : f.path) {
        const double w = weight_on_link[l.get()];
        if (w > 0.0) {
          best_share = std::min(best_share, std::max(residual[l.get()], 0.0) / w);
        }
      }
      if (std::isfinite(f.cap)) best_share = std::min(best_share, f.cap / f.weight);
    }
    if (!std::isfinite(best_share)) return pin_unfixed_at_zero();

    // Fix every unfixed flow that is bound by this share: flows whose cap is
    // reached, and flows crossing a link whose residual-per-weight equals it.
    bool fixed_any = false;
    for (AllocFlow& f : flows) {
      if (f.fixed) continue;
      bool bound = std::isfinite(f.cap) && f.cap / f.weight <= best_share * (1 + 1e-12);
      if (!bound) {
        for (LinkId l : f.path) {
          const double w = weight_on_link[l.get()];
          if (w > 0.0 &&
              std::max(residual[l.get()], 0.0) / w <= best_share * (1 + 1e-12)) {
            bound = true;
            break;
          }
        }
      }
      if (!bound) continue;
      f.rate = best_share * f.weight;
      f.fixed = true;
      fixed_any = true;
      --unfixed;
      for (LinkId l : f.path) {
        residual[l.get()] -= f.rate;
        weight_on_link[l.get()] -= f.weight;
      }
    }
    if (!fixed_any) return pin_unfixed_at_zero();
  }
  return true;
}

void Network::reserve_flows(std::size_t concurrent, std::size_t lifetime) {
  hot_remaining_.reserve(concurrent);
  hot_rate_.reserve(concurrent);
  hot_last_update_.reserve(concurrent);
  hot_mark_.reserve(concurrent);
  param_.reserve(concurrent);
  cold_.reserve(concurrent);
  link_pos_.reserve(concurrent);
  live_next_.reserve(concurrent);
  live_prev_.reserve(concurrent);
  free_slots_.reserve(concurrent);
  comp_flows_.reserve(concurrent);
  comp_links_.reserve(topo_->link_count());
  batch_seed_links_.reserve(topo_->link_count());
  id_to_slot_.reserve(lifetime);
}

void Network::set_telemetry(telemetry::Telemetry* t) {
  telemetry_ = t;
  if (t != nullptr) {
    solves_counter_ = &t->metrics().counter("netsim_solves_total");
    coalesced_counter_ = &t->metrics().counter("netsim_coalesced_flows_total");
    // The members are authoritative from construction; a late attach (the
    // Fabric wires telemetry right after constructing the network) catches
    // the registry up so both views agree.
    if (solves_counter_->value() < solves_total_) {
      solves_counter_->increment(solves_total_ - solves_counter_->value());
    }
    if (coalesced_counter_->value() < coalesced_flows_total_) {
      coalesced_counter_->increment(coalesced_flows_total_ -
                                    coalesced_counter_->value());
    }
  } else {
    solves_counter_ = nullptr;
    coalesced_counter_ = nullptr;
  }
}

Network::StorageFootprint Network::flow_state_footprint() {
  StorageFootprint f;
  f.hot = sizeof(Bytes) + sizeof(Bandwidth) + sizeof(Time) + sizeof(std::uint64_t);
  f.param = sizeof(FlowParam);
  f.cold = sizeof(FlowCold);
  return f;
}

PathView Network::intern_path(const Path& p) {
  auto it = path_intern_.find(&p);
  if (it != path_intern_.end()) return it->second;
  const std::size_t n = p.size();
  MCCS_EXPECTS(n > 0);
  if (path_arena_.empty() || arena_used_ + n > kArenaBlockLinks) {
    path_arena_.push_back(
        std::make_unique<LinkId[]>(std::max(n, kArenaBlockLinks)));
    arena_used_ = 0;
  }
  LinkId* dst = path_arena_.back().get() + arena_used_;
  std::copy(p.begin(), p.end(), dst);
  arena_used_ += n;
  const PathView view{dst, n};
  path_intern_.emplace(&p, view);
  return view;
}

std::uint32_t Network::acquire_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(param_.size());
    hot_remaining_.push_back(0.0);
    hot_rate_.push_back(0.0);
    hot_last_update_.push_back(0.0);
    hot_mark_.push_back(0);
    param_.emplace_back();
    cold_.emplace_back();
    link_pos_.emplace_back();
    live_next_.push_back(kNoSlot);
    live_prev_.push_back(kNoSlot);
  }
  // Link at the tail. Ids are monotone, so tail insertion keeps the live
  // list in ascending-id order — active_flows() walks it sorted for free.
  live_next_[slot] = kNoSlot;
  live_prev_[slot] = live_tail_;
  if (live_tail_ != kNoSlot) {
    live_next_[live_tail_] = slot;
  } else {
    live_head_ = slot;
  }
  live_tail_ = slot;
  ++live_count_;
  return slot;
}

void Network::release_slot(std::uint32_t slot) {
  const std::uint32_t prev = live_prev_[slot];
  const std::uint32_t next = live_next_[slot];
  (prev != kNoSlot ? live_next_[prev] : live_head_) = next;
  (next != kNoSlot ? live_prev_[next] : live_tail_) = prev;
  --live_count_;
  id_to_slot_[param_[slot].seq] = kNoSlot;
  // Drop the cold section's owned state (the on_complete closure in
  // particular) so a recycled slot cannot leak or observe a prior tenant.
  cold_[slot].spec = FlowSpec{};
  cold_[slot].completion = {};
  cold_[slot].completion_at = kNoCompletion;
  cold_[slot].activation = {};
  cold_[slot].cohort_key = 0;
  cold_[slot].in_cohort = false;
  param_[slot].path = {};
  free_slots_.push_back(slot);
}

FlowId Network::start_flow(FlowSpec spec) {
  MCCS_EXPECTS(spec.src != spec.dst);
  MCCS_EXPECTS(spec.background_demand > 0.0 || spec.size > 0);
  MCCS_EXPECTS(spec.weight > 0.0);

  const std::uint32_t id = next_flow_id_++;
  const Path& route = spec.route.valid()
                          ? routing_.by_route_id(spec.src, spec.dst, spec.route)
                          : routing_.by_ecmp(spec.src, spec.dst, spec.ecmp_key);

  const std::uint32_t slot = acquire_slot();
  MCCS_ASSERT(id_to_slot_.size() == id);
  id_to_slot_.push_back(slot);

  hot_remaining_[slot] = static_cast<double>(spec.size);
  hot_rate_[slot] = 0.0;
  hot_last_update_[slot] = loop_->now();
  hot_mark_[slot] = 0;

  FlowParam& p = param_[slot];
  p.path = intern_path(route);
  p.rate_cap = spec.rate_cap;
  p.weight = spec.weight;
  p.background_demand = spec.background_demand;
  p.seq = id;
  p.started = false;
  p.paused = false;

  FlowCold& c = cold_[slot];
  c.created = loop_->now();
  const Time latency = spec.start_latency;
  c.spec = std::move(spec);

  if (latency > 0.0) {
    if (options_.coalesce) {
      // Activation cohort: latent flows sharing one exact activation instant
      // (a collective launch posts its chunk flows in one handler with one
      // start latency) activate through a single event — scheduled at the
      // seq position the first member's own activation would have held, so
      // ordering against other same-instant events is unchanged — and solve
      // once. Keyed by the bit pattern of the instant schedule_after would
      // compute, so membership is exact-FP, never epsilon.
      const Time at = loop_->now() + latency;
      std::uint64_t key = 0;
      static_assert(sizeof(key) == sizeof(at));
      std::memcpy(&key, &at, sizeof(key));
      auto [it, fresh] = activation_cohorts_.try_emplace(key);
      ActivationCohort& cohort = it->second;
      cohort.ids.push_back(id);
      ++cohort.live;
      c.cohort_key = key;
      c.in_cohort = true;
      if (fresh) {
        cohort.event =
            loop_->schedule_at(at, [this, key] { activate_cohort(key); });
      }
    } else {
      c.activation =
          loop_->schedule_after(latency, [this, id] { activate_flow(id); });
    }
  } else {
    p.started = true;
    insert_into_index(slot);
    reallocate(p.path);
  }
  return FlowId{id};
}

void Network::activate_flow(std::uint32_t id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) return;  // cancelled while latent
  // The activation phase is over: hand the shared cohort fields to the
  // completion phase (set again on completion-cohort enrollment).
  cold_[slot].in_cohort = false;
  cold_[slot].cohort_key = 0;
  FlowParam& p = param_[slot];
  p.started = true;
  hot_last_update_[slot] = loop_->now();
  if (p.paused) return;  // paused while latent; resume_flow picks it up
  insert_into_index(slot);
  reallocate(p.path);
}

void Network::activate_cohort(std::uint64_t key) {
  const auto it = activation_cohorts_.find(key);
  MCCS_ASSERT(it != activation_cohorts_.end());
  // Members activate in start order (== ascending id — the order their
  // per-flow activation events would have fired in); the shared batch folds
  // the burst into one union solve. activate_flow runs no user callbacks,
  // so the cohort map cannot be mutated mid-walk.
  begin_batch();
  for (const std::uint32_t id : it->second.ids) activate_flow(id);
  end_batch();
  activation_cohorts_.erase(it);
}

void Network::schedule_pending_completions() {
  // Group the solve's rescheduled completions by exact instant. The common
  // case — every instant distinct — takes the singleton path below and costs
  // one per-flow event each, as before. Flows sharing a bit-identical
  // completion instant (a symmetric cascade: equal sizes, equal rates) share
  // one cohort event instead of N.
  //
  // Ordering: pending_completions_ is in apply order (ascending flow id).
  // Distinct instants never contend for queue position, so emitting events
  // here, grouped, instead of one-by-one inside the apply loop is
  // order-equivalent; within one instant the cohort drains its members in
  // enrollment order — the order their per-flow events would have fired in.
  const std::size_t n = pending_completions_.size();
  auto schedule_singleton = [this](const PendingCompletion& pc) {
    const std::uint32_t id = param_[pc.slot].seq;
    cold_[pc.slot].completion =
        loop_->schedule_at(pc.at, [this, id] { complete_flow(id); });
  };
  if (n == 1) {
    schedule_singleton(pending_completions_[0]);
    pending_completions_.clear();
    return;
  }
  pending_order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pending_order_[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(pending_order_.begin(), pending_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (pending_completions_[a].bits != pending_completions_[b].bits) {
                return pending_completions_[a].bits < pending_completions_[b].bits;
              }
              return a < b;  // stable within a group: keep apply order
            });
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    while (j < n && pending_completions_[pending_order_[j]].bits ==
                        pending_completions_[pending_order_[i]].bits) {
      ++j;
    }
    if (j == i + 1) {
      schedule_singleton(pending_completions_[pending_order_[i]]);
      i = j;
      continue;
    }
    std::uint32_t idx;
    if (!free_cohorts_.empty()) {
      idx = free_cohorts_.back();
      free_cohorts_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(completion_cohorts_.size());
      completion_cohorts_.emplace_back();
    }
    CompletionCohort& co = completion_cohorts_[idx];
    MCCS_ASSERT(co.ids.empty() && !co.draining);
    for (std::size_t k = i; k < j; ++k) {
      const PendingCompletion& pc = pending_completions_[pending_order_[k]];
      co.ids.push_back(param_[pc.slot].seq);
      cold_[pc.slot].cohort_key = idx;
      cold_[pc.slot].in_cohort = true;
    }
    co.event = loop_->schedule_at(
        pending_completions_[pending_order_[i]].at,
        [this, idx] { drain_completion_cohort(idx); });
    i = j;
  }
  pending_completions_.clear();
}

void Network::leave_completion_cohort(std::uint32_t slot) {
  FlowCold& c = cold_[slot];
  if (!c.in_cohort) return;
  CompletionCohort& co = completion_cohorts_[c.cohort_key];
  if (!co.draining) {
    const auto pos = std::find(co.ids.begin(), co.ids.end(), param_[slot].seq);
    MCCS_ASSERT(pos != co.ids.end());
    co.ids.erase(pos);
    if (co.ids.empty()) {
      loop_->cancel(co.event);
      co.event = {};
      free_cohorts_.push_back(static_cast<std::uint32_t>(c.cohort_key));
    }
  }
  // Mid-drain the member list was moved out; the drain loop re-checks
  // in_cohort, so resetting the flags is all a leave needs there.
  c.in_cohort = false;
  c.cohort_key = 0;
}

void Network::drain_completion_cohort(std::uint32_t idx) {
  CompletionCohort& co = completion_cohorts_[idx];
  // Move the member list into persistent scratch and mark the record
  // draining: completion callbacks may cancel or pause later members (their
  // leave then only resets the flags), and the batch-close solve may form
  // fresh cohorts — but never from this pool slot, which is freed only after
  // the walk and the solve are done.
  drain_ids_.assign(co.ids.begin(), co.ids.end());
  co.ids.clear();
  co.draining = true;
  begin_batch();
  for (const std::uint32_t id : drain_ids_) {
    const std::uint32_t slot = slot_of(id);
    if (slot == kNoSlot) continue;  // cancelled by an earlier member's callback
    FlowCold& c = cold_[slot];
    if (!c.in_cohort || c.cohort_key != idx) continue;  // left mid-drain
    c.in_cohort = false;
    c.cohort_key = 0;
    complete_flow(id);
  }
  end_batch();
  // Re-index: the batch-close solve may have grown the pool and moved it.
  CompletionCohort& done = completion_cohorts_[idx];
  done.draining = false;
  done.event = {};
  free_cohorts_.push_back(idx);
}

void Network::cancel_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id.get());
  if (slot == kNoSlot) return;
  FlowCold& c = cold_[slot];
  loop_->cancel(c.completion);
  loop_->cancel(c.activation);
  if (!param_[slot].started && c.in_cohort) {
    // Leave the dead id in the member list (activation skips it); when the
    // last live member goes, drop the cohort's event from the loop just as
    // per-flow cancellation would have.
    const auto it = activation_cohorts_.find(c.cohort_key);
    if (it != activation_cohorts_.end() && --it->second.live == 0) {
      loop_->cancel(it->second.event);
      activation_cohorts_.erase(it);
    }
  } else if (param_[slot].started) {
    leave_completion_cohort(slot);
  }
  const bool was_allocated = allocatable(slot);
  if (was_allocated) remove_from_index(slot);
  emit_flow_span(slot, /*completed=*/false);
  // The interned path outlives the slot, so the view stays valid as a seed.
  const PathView path = param_[slot].path;
  release_slot(slot);
  // A latent or paused flow had rate 0 and constrained nobody.
  if (was_allocated) reallocate(path);
}

void Network::pause_flow(FlowId id) {
  const std::uint32_t slot = checked_slot(id.get());
  FlowParam& p = param_[slot];
  if (p.paused) return;
  p.paused = true;
  if (!p.started) return;  // latent: was never allocated
  touch(slot, loop_->now());
  remove_from_index(slot);
  hot_rate_[slot] = 0.0;
  loop_->cancel(cold_[slot].completion);
  cold_[slot].completion = {};
  cold_[slot].completion_at = kNoCompletion;
  leave_completion_cohort(slot);
  reallocate(p.path);
}

void Network::resume_flow(FlowId id) {
  const std::uint32_t slot = checked_slot(id.get());
  FlowParam& p = param_[slot];
  if (!p.paused) return;
  p.paused = false;
  if (!p.started) return;  // activation will insert it
  hot_last_update_[slot] = loop_->now();
  insert_into_index(slot);
  reallocate(p.path);
}

Bandwidth Network::flow_rate(FlowId id) const {
  return hot_rate_[checked_slot(id.get())];
}

Bytes Network::flow_remaining(FlowId id) const {
  const std::uint32_t slot = checked_slot(id.get());
  // Lazy progress: integrate the stored counter forward to now on read.
  double rem = hot_remaining_[slot];
  if (allocatable(slot) && param_[slot].background_demand <= 0.0) {
    rem -= hot_rate_[slot] * (loop_->now() - hot_last_update_[slot]);
  }
  return static_cast<Bytes>(std::ceil(std::max(rem, 0.0)));
}

PathView Network::flow_path(FlowId id) const {
  return param_[checked_slot(id.get())].path;
}

const FlowSpec& Network::flow_spec(FlowId id) const {
  return cold_[checked_slot(id.get())].spec;
}

std::vector<FlowId> Network::active_flows() const {
  std::vector<FlowId> out;
  out.reserve(live_count_);
  for (std::uint32_t s = live_head_; s != kNoSlot; s = live_next_[s]) {
    out.push_back(FlowId{param_[s].seq});
  }
  return out;
}

int Network::register_link_change_consumer() {
  link_change_cursors_.push_back(link_change_base_);
  return static_cast<int>(link_change_cursors_.size() - 1);
}

Network::LinkChangeRegistration Network::register_link_change_consumer_at(
    std::size_t cursor) {
  MCCS_EXPECTS(cursor <= link_change_end());
  LinkChangeRegistration reg;
  if (cursor < link_change_base_) {
    // The history the resume needs is gone: refuse the registration instead
    // of starting at base and silently skipping [cursor, base).
    reg.trimmed = true;
    reg.gap = TrimmedHistory{cursor, link_change_base_};
    return reg;
  }
  link_change_cursors_.push_back(cursor);
  reg.consumer = static_cast<int>(link_change_cursors_.size() - 1);
  return reg;
}

void Network::unregister_link_change_consumer(int consumer) {
  MCCS_EXPECTS(consumer >= 0 &&
               static_cast<std::size_t>(consumer) < link_change_cursors_.size());
  std::size_t& cursor = link_change_cursors_[static_cast<std::size_t>(consumer)];
  MCCS_EXPECTS(cursor != kReleasedCursor);
  cursor = kReleasedCursor;
  // The released cursor may have been the trim bottleneck.
  maybe_trim_link_changes();
}

void Network::ack_link_changes(int consumer, std::size_t upto) {
  MCCS_EXPECTS(consumer >= 0 &&
               static_cast<std::size_t>(consumer) < link_change_cursors_.size());
  MCCS_EXPECTS(upto <= link_change_end());
  std::size_t& cursor = link_change_cursors_[consumer];
  MCCS_EXPECTS(cursor != kReleasedCursor);
  if (upto <= cursor) return;
  cursor = upto;
  maybe_trim_link_changes();
}

void Network::maybe_trim_link_changes() {
  // Keep the log whole when no consumer is live: late (or restarting)
  // consumers must still be able to observe every change. Released cursors
  // no longer pin anything.
  std::size_t min_ack = link_change_end();
  bool any_live = false;
  for (std::size_t c : link_change_cursors_) {
    if (c == kReleasedCursor) continue;
    any_live = true;
    min_ack = std::min(min_ack, c);
  }
  if (!any_live) return;
  const std::size_t drop = min_ack - link_change_base_;
  if (drop < kLinkChangeTrimBatch) return;
  link_changes_.erase(link_changes_.begin(),
                      link_changes_.begin() + static_cast<std::ptrdiff_t>(drop));
  link_change_base_ = min_ack;
}

void Network::set_link_state(LinkId id, LinkState state, double capacity_fraction) {
  MCCS_EXPECTS(id.get() < links_.size());
  double scale = 1.0;
  switch (state) {
    case LinkState::kUp:
      scale = 1.0;
      break;
    case LinkState::kDegraded:
      MCCS_EXPECTS(capacity_fraction > 0.0 && capacity_fraction <= 1.0);
      scale = capacity_fraction;
      break;
    case LinkState::kDown:
      scale = 0.0;
      break;
  }
  if (link_states_[id.get()] == state && capacity_scale_[id.get()] == scale) return;
  link_states_[id.get()] = state;
  capacity_scale_[id.get()] = scale;
  link_changes_.push_back(LinkChange{id, state, scale, loop_->now()});
  // The link is its own seed: every flow crossing it (and their bottleneck
  // component) re-solves; everyone else keeps their rates and events.
  const LinkId seed = id;
  reallocate(PathView{&seed, 1});
}

void Network::insert_into_index(std::uint32_t slot) {
  const FlowParam& p = param_[slot];
  const bool normal = p.background_demand <= 0.0;
  const Bandwidth rate = hot_rate_[slot];
  std::vector<std::uint32_t>& pos = link_pos_[slot];
  pos.clear();  // capacity is recycled with the slot
  for (std::uint32_t k = 0; k < p.path.size(); ++k) {
    LinkIndex& li = links_[p.path[k].get()];
    pos.push_back(static_cast<std::uint32_t>(li.flows.size()));
    li.flows.push_back(LinkIndex::Member{slot, k});
    li.throughput += rate;
    if (normal) ++li.normal_count;
  }
}

void Network::remove_from_index(std::uint32_t slot) {
  const FlowParam& p = param_[slot];
  const bool normal = p.background_demand <= 0.0;
  const Bandwidth rate = hot_rate_[slot];
  const std::vector<std::uint32_t>& pos = link_pos_[slot];
  MCCS_ASSERT(pos.size() == p.path.size());
  for (std::uint32_t k = 0; k < p.path.size(); ++k) {
    LinkIndex& li = links_[p.path[k].get()];
    const std::uint32_t i = pos[k];
    MCCS_ASSERT(i < li.flows.size() && li.flows[i].slot == slot);
    // O(1) swap-remove at the backpointer position — the same position a
    // linear scan would find, so member order (and therefore the FP
    // accumulation order of the throughput refresh) evolves identically.
    const LinkIndex::Member moved = li.flows.back();
    li.flows[i] = moved;
    if (moved.slot != slot) link_pos_[moved.slot][moved.pos] = i;
    li.flows.pop_back();
    li.throughput -= rate;
    if (normal) {
      MCCS_ASSERT(li.normal_count > 0);
      --li.normal_count;
    }
  }
}

void Network::collect_component(PathView seed) {
  ++epoch_;
  comp_flows_.clear();
  comp_links_.clear();
  auto mark_link = [this](LinkId l) {
    if (link_mark_[l.get()] != epoch_) {
      link_mark_[l.get()] = epoch_;
      comp_links_.push_back(l.get());
    }
  };
  // Seed links are always included (even if now memberless) so their index
  // throughput is refreshed after a removal.
  for (LinkId l : seed) mark_link(l);
  // BFS over links: any flow on a reached link joins the component and
  // contributes its own links to the frontier.
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    for (const LinkIndex::Member m : links_[comp_links_[i]].flows) {
      if (hot_mark_[m.slot] == epoch_) continue;
      hot_mark_[m.slot] = epoch_;
      comp_flows_.push_back(m.slot);
      for (LinkId l : param_[m.slot].path) mark_link(l);
    }
  }
  // Ascending-id order matches the reference path bit-for-bit (the solver's
  // floating-point results depend on per-link accumulation order).
  std::sort(comp_flows_.begin(), comp_flows_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return param_[a].seq < param_[b].seq;
            });
}

void Network::collect_all() {
  ++epoch_;
  comp_flows_.clear();
  comp_links_.clear();
  // The live list is ascending-id, so the collected set needs no sort.
  for (std::uint32_t s = live_head_; s != kNoSlot; s = live_next_[s]) {
    if (!allocatable(s)) continue;
    comp_flows_.push_back(s);
    for (LinkId l : param_[s].path) {
      if (link_mark_[l.get()] != epoch_) {
        link_mark_[l.get()] = epoch_;
        comp_links_.push_back(l.get());
      }
    }
  }
}

void Network::reallocate(PathView seed) {
  if (batch_depth_ > 0) {
    // Deferred: fold the seed into the batch's dirty-link union (the seed
    // views point at interned arena storage or at set_link_state's stack
    // slot, so the links are copied out here, synchronously) and solve once
    // at batch close. Zero virtual time elapses before that solve, so the
    // skipped intermediate rate states would have transferred zero bytes and
    // their completion events would all be superseded — the coalesced solve
    // is semantically identical (DESIGN.md §15).
    MCCS_CHECK(loop_->now() == batch_time_,
               "virtual time advanced inside a solve batch");
    for (LinkId l : seed) {
      if (batch_link_mark_[l.get()] != batch_epoch_) {
        batch_link_mark_[l.get()] = batch_epoch_;
        batch_seed_links_.push_back(l);
      }
    }
    ++batch_pending_;
    return;
  }
  solve_now(seed);
}

void Network::solve_now(PathView seed) {
  ++solves_total_;
  if (solves_counter_ != nullptr) solves_counter_->increment();
  solve_seed_ = seed;
  if (options_.incremental) {
    collect_component(seed);
  } else {
    collect_all();
    // Reference mode still refreshes the seed's links below even when they
    // lost their last member.
    for (LinkId l : seed) {
      if (link_mark_[l.get()] != epoch_) {
        link_mark_[l.get()] = epoch_;
        comp_links_.push_back(l.get());
      }
    }
  }
  allocate_component();
  solve_seed_ = {};
}

void Network::begin_batch() {
  if (!options_.coalesce) return;
  if (batch_depth_++ == 0) {
    batch_time_ = loop_->now();
    ++batch_epoch_;
    MCCS_ASSERT(batch_seed_links_.empty() && batch_pending_ == 0);
  }
}

void Network::end_batch() {
  if (!options_.coalesce) return;
  MCCS_CHECK(batch_depth_ > 0, "end_batch without a matching begin_batch");
  if (--batch_depth_ > 0) return;  // nested close: the outermost one solves
  if (batch_pending_ == 0) return;  // empty batch: nothing changed, no solve
  MCCS_CHECK(loop_->now() == batch_time_,
             "virtual time advanced inside a solve batch");
  ++batches_total_;
  coalesced_flows_total_ += batch_pending_;
  if (coalesced_counter_ != nullptr) {
    coalesced_counter_->increment(batch_pending_);
  }
  batch_pending_ = 0;
  // The union seed lives in batch_seed_links_ for the duration of the solve
  // (nothing appends while the depth is zero); one component discovery from
  // the union covers every flow any deferred mutation could have re-rated.
  solve_now(PathView{batch_seed_links_.data(), batch_seed_links_.size()});
  batch_seed_links_.clear();
}

void Network::allocate_component() {
  const Time now = loop_->now();

  // Canonicalize the collected link order. Discovery order depends on the
  // seed that reached the component (a single mutated path vs a batch's
  // dirty-link union), and the solver's bottleneck scan breaks exact
  // fair-share ties by iteration order — so without this, the same component
  // could freeze links in a different sequence and drift by an ulp depending
  // on how the mutations that produced it were grouped into solves. Sorted,
  // the solve is a pure function of component content (flows already walk in
  // ascending id order), which is what the batched/unbatched completion-time
  // identity rests on.
  std::sort(comp_links_.begin(), comp_links_.end());

  // Partition the collected flows into disjoint bottleneck sub-components
  // (union-find over their links). A multi-link seed — a completed or
  // cancelled flow's path, a failed link — can gather flows that share no
  // link with each other; each such sub-component's max-min solution only
  // involves its own links and flows, so solving them separately is
  // arithmetically identical to the joint solve. Rates, progress
  // integration, and completion events are applied afterwards in ascending
  // flow-id order across all sub-components.
  for (std::uint32_t l : comp_links_) uf_parent_[l] = l;
  auto find_root = [this](std::uint32_t l) {
    while (uf_parent_[l] != l) {
      uf_parent_[l] = uf_parent_[uf_parent_[l]];  // path halving
      l = uf_parent_[l];
    }
    return l;
  };
  for (std::uint32_t s : comp_flows_) {
    const PathView p = param_[s].path;
    // `acc` stays a live root throughout (both operands of every union are
    // roots, and we keep the winner): re-parenting a non-root would silently
    // undo an earlier union and split the component.
    std::uint32_t acc = find_root(p.front().get());
    for (std::size_t i = 1; i < p.size(); ++i) {
      const std::uint32_t r = find_root(p[i].get());
      if (r == acc) continue;
      const std::uint32_t lo = std::min(acc, r);
      uf_parent_[std::max(acc, r)] = lo;
      acc = lo;
    }
  }
  // Sub-component order: ascending first-member flow id (deterministic).
  comp_roots_.clear();
  auto comp_of = [this](std::uint32_t root) {
    for (std::size_t i = 0; i < comp_roots_.size(); ++i) {
      if (comp_roots_[i] == root) return i;
    }
    comp_roots_.push_back(root);
    return comp_roots_.size() - 1;
  };
  for (std::uint32_t s : comp_flows_) {
    comp_of(find_root(param_[s].path.front().get()));
  }
  const std::size_t num_comps = comp_roots_.size();

  // The SubComp pool is high-water sized and cleared in place: inner vectors
  // keep their capacity, so a warm solve allocates nothing here.
  if (comps_.size() < num_comps) comps_.resize(num_comps);
  for (std::size_t i = 0; i < num_comps; ++i) {
    SubComp& sc = comps_[i];
    sc.background.clear();
    sc.normal.clear();
    sc.links.clear();
    sc.dirty = false;
  }

  // Build each sub-component's flow lists in ascending id order (the order
  // the solver's floating point depends on) and hand it its own links.
  for (std::uint32_t s : comp_flows_) {
    const FlowParam& p = param_[s];
    SubComp& sc = comps_[comp_of(find_root(p.path.front().get()))];
    if (p.background_demand > 0.0) {
      sc.background.push_back(
          AllocFlow{s, p.path, p.background_demand, p.background_demand});
    } else {
      sc.normal.push_back(AllocFlow{s, p.path, p.weight, p.rate_cap});
    }
  }
  for (std::uint32_t l : comp_links_) {
    // Memberless links (e.g. the just-vacated path that seeded this solve)
    // belong to no sub-component; they only need the index refresh below.
    const std::uint32_t root = find_root(l);
    for (std::size_t i = 0; i < comp_roots_.size(); ++i) {
      if (comp_roots_[i] == root) {
        comps_[i].links.push_back(l);
        break;
      }
    }
  }
  // Mark the sub-components reachable from the solve's seed links as dirty.
  // Incremental collection only ever gathers seed-reachable flows, so every
  // sub-component is dirty there; reference mode collects everything and
  // this restores the same partition — see SubComp::dirty for why the
  // distinction must be identical across modes. A memberless seed link's
  // root is absent from comp_roots_ and marks nothing.
  for (const LinkId l : solve_seed_) {
    if (link_mark_[l.get()] != epoch_) continue;  // stale seed, not collected
    const std::uint32_t root = find_root(l.get());
    for (std::size_t i = 0; i < comp_roots_.size(); ++i) {
      if (comp_roots_[i] == root) {
        comps_[i].dirty = true;
        break;
      }
    }
  }

  // Solve the sub-components in order. Background flows take their demand
  // with strict priority first, sharing capacity weighted by demand if
  // oversubscribed; normal flows max-min share the remainder.
  unsatisfied_scratch_.clear();
  bool ok = true;
  for (std::size_t i = 0; i < num_comps; ++i) {
    SubComp& sc = comps_[i];
    for (std::uint32_t l : sc.links) {
      // Effective capacity folds in the administrative link state: degraded
      // links keep a fraction, down links contribute zero (their flows come
      // out of the solve at rate zero and simply stall — no completion
      // event).
      residual_[l] = topo_->link(LinkId{l}).capacity * capacity_scale_[l];
    }
    ok = max_min_allocate(sc.background, residual_, weight_scratch_, sc.links,
                          unsatisfied_scratch_) && ok;
    ok = max_min_allocate(sc.normal, residual_, weight_scratch_, sc.links,
                          unsatisfied_scratch_) && ok;
  }
  if (!ok) {
    ++allocation_error_count_;
    if (allocation_error_handler_) {
      AllocationError err;
      err.at = now;
      err.flows.reserve(unsatisfied_scratch_.size());
      for (std::uint32_t s : unsatisfied_scratch_) {
        err.flows.push_back(FlowId{param_[s].seq});
      }
      std::sort(err.flows.begin(), err.flows.end());
      // Fresh event: the handler may mutate the flow set (cancel the
      // offending flows, start replacements) without re-entering this solve.
      loop_->schedule_after(0.0, [this, err = std::move(err)] {
        if (allocation_error_handler_) allocation_error_handler_(err);
      });
    }
  }

  // Apply the solved rates, iterating comp_flows_ in ascending id order
  // across all sub-components (each sub-component's lists were built in that
  // same order, so per-component cursors walk them in lockstep). This
  // reproduces the exact completion-event insertion order of a joint solve
  // over the whole collected set.
  //
  // A flow in a clean sub-component whose rate is bitwise unchanged keeps its
  // rate, its un-integrated progress, and its already-scheduled completion
  // event — the lazy fast path that lets an untouched bottleneck component
  // cost nothing (a component whose flow set did not change re-derives the
  // identical bits: the solve iterates flows in ascending id order, so its
  // arithmetic depends only on the component's content, never on the seed that
  // found it). Exact comparison, not an epsilon: a tolerance would let a flow
  // keep running at a stale near-equal rate, and *which* intermediate rate it
  // kept would depend on how the mutations that produced this state were
  // grouped into solves — breaking the batched/unbatched completion-time
  // identity that solve coalescing is built on.
  //
  // touch() runs BEFORE the fast-path continue for every flow in a dirty
  // sub-component. Progress integration r*(t1-t0) + r*(t2-t1) is not bitwise
  // equal to r*(t2-t0) in floating point, so *where* the integration
  // interval is split must itself be identical across solve groupings.
  // Touching every dirty-component flow pins the split points to "instants
  // at which this flow's component contained a mutated link" — a pure
  // function of the mutation timeline, not of whether a same-instant
  // up-then-back rate excursion was observed (one solve per mutation) or
  // coalesced away (one batched solve sees no net change), and not of
  // whether collection was component-scoped or global (reference mode
  // collects clean components too; their flows must keep their anchors).
  // Dirty-component flows also RE-DERIVE their completion event from the
  // fresh anchor even when the rate is unchanged: `t0 + rem(t0)/r` and
  // `t1 + rem(t1)/r` name the same mathematical instant but round
  // differently, so keeping an event computed from an older anchor while
  // the other grouping re-derives it (because it observed a transient
  // up-then-back rate excursion) would split the completion by one ulp.
  // The extra cost is two loads and a store per dirty flow, inside a loop
  // that already visits it, plus one event reschedule per dirty flow.
  comp_cursor_bg_.assign(num_comps, 0);
  comp_cursor_normal_.assign(num_comps, 0);
  for (std::uint32_t s : comp_flows_) {
    const FlowParam& p = param_[s];
    const std::size_t ci = comp_of(find_root(p.path.front().get()));
    SubComp& sc = comps_[ci];
    if (p.background_demand > 0.0) {
      const AllocFlow& a = sc.background[comp_cursor_bg_[ci]++];
      MCCS_ASSERT(a.slot == s);
      hot_rate_[s] = a.rate;
      continue;
    }
    const AllocFlow& a = sc.normal[comp_cursor_normal_[ci]++];
    MCCS_ASSERT(a.slot == s);
    const bool dirty = sc.dirty;
    if (dirty || a.rate != hot_rate_[s]) {
      touch(s, now);  // integrate at the old rate first
    }
    if (!dirty && a.rate == hot_rate_[s]) continue;
    hot_rate_[s] = a.rate;
    FlowCold& c = cold_[s];
    loop_->cancel(c.completion);
    c.completion = {};
    // Completion-instant clamp: a flow whose completion is already queued at
    // this very instant IS finished — see FlowCold::completion_at. Forcing
    // remaining to zero here makes the re-derived completion land at `now`
    // again (both branches below schedule "complete now" for remaining <= 0)
    // instead of one ulp later from quotient-rounding residue.
    if (c.completion_at == now) hot_remaining_[s] = 0.0;
    c.completion_at = kNoCompletion;
    if (options_.coalesce) {
      // Coalesce mode: defer to schedule_pending_completions, which groups
      // this solve's completions by exact instant. `now + eta` is
      // bit-for-bit the instant schedule_after(eta) would compute, so flows
      // that would have completed in one same-instant cascade of per-flow
      // events land in one group. A stalled flow (rate ~ 0, bytes left)
      // enrolls nowhere, exactly as it would have no event.
      leave_completion_cohort(s);
      PendingCompletion pc;
      pc.slot = s;
      if (hot_remaining_[s] <= 0.0) {
        pc.at = now + 0.0;  // == schedule_after(0.0)
      } else if (hot_rate_[s] > kRateEpsilon) {
        pc.at = now + hot_remaining_[s] / hot_rate_[s];
      } else {
        continue;
      }
      c.completion_at = pc.at;
      static_assert(sizeof(pc.bits) == sizeof(pc.at));
      std::memcpy(&pc.bits, &pc.at, sizeof(pc.bits));
      pending_completions_.push_back(pc);
      continue;
    }
    const std::uint32_t id = p.seq;
    if (hot_remaining_[s] <= 0.0) {
      // Already delivered; complete "now" (from a fresh event for re-entrancy).
      c.completion = loop_->schedule_after(0.0, [this, id] { complete_flow(id); });
      c.completion_at = now + 0.0;
    } else if (hot_rate_[s] > kRateEpsilon) {
      const Time eta = hot_remaining_[s] / hot_rate_[s];
      c.completion = loop_->schedule_after(eta, [this, id] { complete_flow(id); });
      c.completion_at = now + eta;  // bit-identical to schedule_after's instant
    }
  }

  if (options_.coalesce && !pending_completions_.empty()) {
    schedule_pending_completions();
  }

  // Refresh the touched links' monitored throughput from their members'
  // fresh rates (exact recomputation, so incremental updates cannot drift).
  // The utilization sampler integrates the *outgoing* rate over the interval
  // it was in force before the new one replaces it, and (enabled mode only)
  // drops a counter sample on the timeline when the rate actually changed.
  const bool record = telemetry_ != nullptr && telemetry_->enabled();
  if (record) counter_scratch_.clear();
  for (std::uint32_t l : comp_links_) {
    LinkIndex& li = links_[l];
    Bandwidth total = 0.0;
    for (const LinkIndex::Member m : li.flows) total += hot_rate_[m.slot];
    link_bytes_[l] += li.throughput * (now - link_sample_time_[l]);
    link_sample_time_[l] = now;
    if (record && total != li.throughput) {
      if (link_track_ < 0) {
        link_track_ = telemetry_->timeline().track("netsim", "links");
        link_counter_names_.resize(links_.size());
        for (std::size_t i = 0; i < links_.size(); ++i) {
          link_counter_names_[i] = "link" + std::to_string(i);
        }
        counter_scratch_.reserve(links_.size());
      }
      counter_scratch_.push_back(
          {link_counter_names_[l].c_str(), total * 8.0 / 1e9});
    }
    li.throughput = total;
  }
  if (record && !counter_scratch_.empty()) {
    // All links whose allocated rate changed in this reallocation, batched
    // into one "link_gbps" sample (a series per link in the counter chart).
    // Coalesced across same-virtual-instant cascades touching the same link
    // set: only the final rates of the burst survive.
    link_sample_event_ = telemetry_->timeline().counter(
        link_track_, "link_gbps", now, counter_scratch_.data(),
        counter_scratch_.data() + counter_scratch_.size(), link_sample_event_);
  }
}

void Network::emit_flow_span(std::uint32_t slot, bool completed) {
  if (telemetry_ == nullptr || !telemetry_->enabled()) return;
  const FlowCold& c = cold_[slot];
  if (param_[slot].background_demand > 0.0) return;  // background flows never end
  telemetry::Timeline& tl = telemetry_->timeline();
  if (flow_track_ < 0) flow_track_ = tl.track("netsim", "flows");
  // Lean on purpose (endpoints ride on the matching transport chunk_send
  // span): flow completion is the hottest netsim recording site.
  tl.span(flow_track_, "netsim",
          completed ? "flow" : "flow_cancelled", c.created, loop_->now(),
          {{"app", static_cast<std::int64_t>(c.spec.app.get())},
           {"bytes", static_cast<std::uint64_t>(c.spec.size)}});
}

void Network::complete_flow(std::uint32_t id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) return;
  hot_remaining_[slot] = 0.0;
  remove_from_index(slot);
  emit_flow_span(slot, /*completed=*/true);
  FlowSpec spec = std::move(cold_[slot].spec);
  const PathView path = param_[slot].path;  // interned: survives the slot
  release_slot(slot);
  reallocate(path);
  if (spec.on_complete) spec.on_complete(FlowId{id}, loop_->now());
}

}  // namespace mccs::net
