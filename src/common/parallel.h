#pragma once
// Deterministic fork-join task pool for coarse-grained work: sharded
// reductions, independent benchmark runs, seed sweeps. A dispatch costs
// microseconds, so per-solve or per-route work stays serial (DESIGN.md §10).
//
// Design constraints, in priority order:
//
//  1. *Determinism.* Every parallel_for splits [0, n) into fixed grain-sized
//     chunks whose boundaries depend only on (n, grain) — never on the thread
//     count or on scheduling. Callers write results into disjoint per-index
//     (or per-chunk) slots and combine them on the calling thread afterwards,
//     in index order. Under that contract `threads = N` is byte-identical to
//     `threads = 1` for any N: the same floating-point operations run on the
//     same operands, only on different threads.
//  2. *Zero cost when off.* `threads = 1` (or a range below one grain) never
//     constructs the pool: the chunks run inline on the caller, preserving
//     the exact pre-pool single-threaded behaviour with no synchronisation.
//  3. *Cheap dispatch.* Idle workers spin briefly on an atomic epoch before
//     blocking on a condvar, so a dispatch that follows another closely pays
//     a cache-line read rather than a futex wakeup. Chunk claiming is
//     mutex-based: a claim costs tens of nanoseconds, which is noise at the
//     intended grain (a 256 KiB reduce shard, a whole simulated seed).
//
// Thread count resolution: ParallelOptions::threads > 0 wins; otherwise the
// MCCS_THREADS environment variable; otherwise std::thread::
// hardware_concurrency(). The process-wide default pool is reachable through
// the free functions `parallel_for` / `parallel_invoke`; tests and benches
// may re-shape it with `set_threads` (e.g. to compare threads=1 vs threads=8
// in one process — see tests/test_parallel.cpp).
//
// Nested parallelism is deliberately flattened: a parallel_for issued from
// inside a pool task (or re-entrantly from a task body on the caller) runs
// its chunks inline on the issuing thread. The outer loop already owns the
// cores; nesting would only add dispatch cost and deadlock risk.

#include <cstddef>
#include <initializer_list>
#include <type_traits>
#include <utility>

namespace mccs::par {

/// Non-owning callable reference (the pool never stores callables beyond the
/// lifetime of the parallel_for call that supplied them, so no allocation or
/// type erasure beyond one pointer pair is needed).
template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

struct ParallelOptions {
  /// Total concurrency including the calling thread. 0 = resolve from the
  /// MCCS_THREADS environment variable, falling back to
  /// hardware_concurrency(). 1 = run everything inline (no pool).
  int threads = 0;
};

/// Fork-join pool: `threads - 1` workers plus the calling thread. A single
/// job is live at a time (the calling thread blocks until its job drains),
/// which is all fork-join needs and keeps the claim path trivial.
class Pool {
 public:
  explicit Pool(ParallelOptions options = {});
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] int threads() const { return threads_; }

  /// Run body(begin, end) over grain-sized chunks of [0, n): boundaries are
  /// exact multiples of `grain` regardless of thread count (the determinism
  /// contract), and every chunk runs exactly once. Blocks until all chunks
  /// finished. The body must not touch shared mutable state except disjoint
  /// per-index output slots.
  void parallel_for(std::size_t n, std::size_t grain,
                    FunctionRef<void(std::size_t, std::size_t)> body);

  /// Run each task once, concurrently where possible; blocks until all done.
  void parallel_invoke(std::initializer_list<FunctionRef<void()>> tasks);

  /// Reconfigure the worker count. Must not be called while a job is live
  /// (i.e. only between parallel regions). Existing workers are joined.
  void set_threads(int threads);

 private:
  struct Impl;
  Impl* impl_;
  int threads_;
};

/// Thread count an options struct resolves to (env / hardware fallback).
[[nodiscard]] int resolve_threads(const ParallelOptions& options);

/// The process-wide default pool (lazily constructed from MCCS_THREADS).
Pool& default_pool();

/// Default pool's concurrency; 1 means every parallel_* call runs inline.
[[nodiscard]] int thread_count();

/// Re-shape the default pool (tests/benches); threads <= 0 restores the
/// MCCS_THREADS / hardware default.
void set_threads(int threads);

inline void parallel_for(std::size_t n, std::size_t grain,
                         FunctionRef<void(std::size_t, std::size_t)> body) {
  default_pool().parallel_for(n, grain, body);
}

inline void parallel_invoke(std::initializer_list<FunctionRef<void()>> tasks) {
  default_pool().parallel_invoke(tasks);
}

}  // namespace mccs::par
