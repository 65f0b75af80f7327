#pragma once
// Abstract execution of compiled collective schedules over contribution
// ledgers: the symbolic oracle the schedule-level tests share. Each rank's
// buffer is a list of chunks, each chunk a multiset of contributor tokens;
// running the schedules and inspecting the final ledgers proves data
// correctness independently of the service datapath.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "collectives/compiler.h"

namespace mccs::test {

using Ledger = std::vector<std::map<int, int>>;  // per chunk: contributor->count

/// Message-driven execution mirroring the service executor: each rank walks
/// its steps in order; a send is applied at the receiver immediately (into
/// the receiver's `recv_chunk` of the matching tag, reducing or copying as
/// the receiver says) and tagged; a step completes once its send is out and
/// its recv tag arrived. Matched send/recv pairs may name different buffer
/// chunks (AllToAll moves block `dst` of the sender into block `src` of the
/// receiver). With `frozen_sends`, sends read from the initial state — the
/// separate send buffer AllToAll reads, which receives never touch; every
/// other kind operates in one work buffer.
inline std::vector<Ledger> run_schedules(
    const std::vector<coll::ChannelSchedule>& scheds, std::vector<Ledger> state,
    bool frozen_sends = false) {
  const int n = static_cast<int>(scheds.size());
  const std::vector<Ledger> send_state = frozen_sends ? state
                                                      : std::vector<Ledger>{};
  std::vector<std::size_t> cur(static_cast<std::size_t>(n), 0);
  std::vector<bool> sent(static_cast<std::size_t>(n), false);
  std::vector<std::set<int>> arrived(static_cast<std::size_t>(n));
  bool progress = true;
  auto all_done = [&] {
    for (int r = 0; r < n; ++r) {
      if (cur[static_cast<std::size_t>(r)] <
          scheds[static_cast<std::size_t>(r)].steps.size())
        return false;
    }
    return true;
  };
  while (!all_done()) {
    EXPECT_TRUE(progress) << "compiled schedule deadlocked";
    if (!progress) break;
    progress = false;
    for (int r = 0; r < n; ++r) {
      auto& c = cur[static_cast<std::size_t>(r)];
      const auto& steps = scheds[static_cast<std::size_t>(r)].steps;
      if (c >= steps.size()) continue;
      const coll::CommStep& st = steps[c];
      if (st.has_send() && !sent[static_cast<std::size_t>(r)]) {
        const auto& peer_steps =
            scheds[static_cast<std::size_t>(st.send_to)].steps;
        const coll::CommStep* match = nullptr;
        for (const coll::CommStep& ps : peer_steps) {
          if (ps.has_recv() && ps.recv_tag == st.send_tag) {
            match = &ps;
            break;
          }
        }
        EXPECT_NE(match, nullptr) << "unmatched send tag " << st.send_tag;
        if (match == nullptr) return state;
        EXPECT_EQ(match->recv_from, r);
        auto& dst_chunk =
            state[static_cast<std::size_t>(st.send_to)][match->recv_chunk];
        const auto& src_chunk =
            (frozen_sends ? send_state
                          : state)[static_cast<std::size_t>(r)][st.send_chunk];
        if (match->reduce) {
          for (const auto& [who, cnt] : src_chunk) dst_chunk[who] += cnt;
        } else {
          dst_chunk = src_chunk;
        }
        arrived[static_cast<std::size_t>(st.send_to)].insert(st.send_tag);
        sent[static_cast<std::size_t>(r)] = true;
        progress = true;
      }
      const bool send_ok = !st.has_send() || sent[static_cast<std::size_t>(r)];
      const bool recv_ok = !st.has_recv() ||
                           arrived[static_cast<std::size_t>(r)].count(st.recv_tag) > 0;
      if (send_ok && recv_ok) {
        ++c;
        sent[static_cast<std::size_t>(r)] = false;
        progress = true;
      }
    }
  }
  return state;
}

/// compile_collective for every rank of one communicator.
inline std::vector<coll::CompiledSchedule> compile_all(
    coll::CollectiveKind kind, coll::Algorithm algo,
    const coll::RingOrder& order, int root, std::size_t tree_chunks,
    const std::vector<int>* hosts = nullptr) {
  const int n = static_cast<int>(order.size());
  std::vector<coll::CompiledSchedule> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    coll::CompileInput in;
    in.kind = kind;
    in.algorithm = algo;
    in.nranks = n;
    in.rank = r;
    in.root = root;
    in.order = &order;
    in.tree_chunks = tree_chunks;
    in.host_of_rank = hosts;
    out.push_back(coll::compile_collective(in));
  }
  return out;
}

/// The executable schedules of compile_all's output.
inline std::vector<coll::ChannelSchedule> schedules_of(
    const std::vector<coll::CompiledSchedule>& compiled) {
  std::vector<coll::ChannelSchedule> out;
  out.reserve(compiled.size());
  for (const coll::CompiledSchedule& cs : compiled) out.push_back(cs.schedule);
  return out;
}

/// Initial ledgers encoding who holds what before the collective runs.
inline std::vector<Ledger> initial_state(coll::CollectiveKind kind, int n,
                                         int root, std::size_t chunks) {
  using coll::CollectiveKind;
  std::vector<Ledger> state(static_cast<std::size_t>(n), Ledger(chunks));
  auto& s = state;
  switch (kind) {
    case CollectiveKind::kAllReduce:
    case CollectiveKind::kReduce:
    case CollectiveKind::kReduceScatter:
      // Every rank contributes to every chunk.
      for (int r = 0; r < n; ++r)
        for (std::size_t c = 0; c < chunks; ++c)
          s[static_cast<std::size_t>(r)][c][r] = 1;
      break;
    case CollectiveKind::kBroadcast:
      for (std::size_t c = 0; c < chunks; ++c)
        s[static_cast<std::size_t>(root)][c][root] = 1;
      break;
    case CollectiveKind::kAllGather:
      // Rank r starts holding only its own block.
      for (int r = 0; r < n; ++r)
        s[static_cast<std::size_t>(r)][static_cast<std::size_t>(r)][r] = 1;
      break;
    case CollectiveKind::kAllToAll:
      // Block b of rank r is the distinct token r*1000 + b.
      for (int r = 0; r < n; ++r)
        for (std::size_t b = 0; b < chunks; ++b)
          s[static_cast<std::size_t>(r)][b][r * 1000 + static_cast<int>(b)] = 1;
      break;
    case CollectiveKind::kGather:
      // Non-roots hold their single block at chunk 0.
      for (int r = 0; r < n; ++r)
        if (r != root) s[static_cast<std::size_t>(r)][0][r] = 1;
      break;
    case CollectiveKind::kScatter:
      for (std::size_t c = 0; c < chunks; ++c)
        s[static_cast<std::size_t>(root)][c][1000 + static_cast<int>(c)] = 1;
      break;
  }
  return state;
}

}  // namespace mccs::test
