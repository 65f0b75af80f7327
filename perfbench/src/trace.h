#pragma once
// In-memory span recorder for the traced benchmark run.
//
// The benchmark records a span around each call it makes into a layer of the
// system (an event-loop step, a flow assignment, a shim call, ...). A span
// holds its name, start, end and parent. When a root span closes, its tree is
// folded into per-name aggregates (count, total time, self time, a duration
// sample per span) and its raw spans are kept for the exit dump up to a cap,
// so memory stays bounded on runs with millions of events.
//
// A span's self time is its duration minus the durations of its direct
// children; children nest strictly inside their parent (one thread, scoped
// spans), so the self times of a tree sum to the root's duration.
//
// Untimed scopes mark work the benchmark does inside the timed phase that is
// not the system's (correctness checks, buffer fills): their duration is
// subtracted from the run's timed wall time whether tracing is on or off,
// and with tracing on they are recorded as spans like any other.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;  ///< index in the same span list
  double start = 0.0;                ///< seconds since the tracer's origin
  double end = 0.0;
};

/// Self time of every span in `spans` (same order). Parents precede their
/// children, as a scoped recorder emits them.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Per-name totals over every folded span.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<float> durations_us;  ///< one per span, for percentiles
};

class Tracer {
 public:
  explicit Tracer(bool enabled, std::size_t keep_cap = 200000);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Switch recording on or off between measurements (no span open).
  void set_enabled(bool on);

  /// Stable id for a span name.
  std::uint32_t intern(std::string_view name);

  /// Open a span (returns its index in the open tree); close in LIFO order.
  std::uint32_t open(std::uint32_t name);
  void close(std::uint32_t span);

  /// Aggregates of one span name (empty stats when never recorded).
  [[nodiscard]] const SpanStats& stats(std::string_view name) const;
  /// Sum of self time over every folded span, except names in `skip`.
  [[nodiscard]] double total_self_s(const std::vector<std::string>& skip) const;

  /// Untimed work (see header comment) accumulated so far, in seconds.
  [[nodiscard]] double untimed_s() const { return untimed_s_; }
  void add_untimed(double s) { untimed_s_ += s; }

  /// Write the kept spans and the per-name aggregates as JSON.
  void write_json(const std::string& path) const;

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

 private:
  void fold();

  bool enabled_;
  std::size_t keep_cap_;
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Span> tree_;            ///< the open root's spans
  std::vector<std::uint32_t> stack_;  ///< open spans, indices into tree_
  std::vector<Span> kept_;            ///< folded spans kept for the dump
  std::uint64_t dropped_ = 0;         ///< folded spans past keep_cap_
  std::vector<SpanStats> stats_;      ///< by name id
  double untimed_s_ = 0.0;
};

/// Scoped span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name)
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        span_(tracer_ != nullptr ? tracer_->open(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t span_;
};

/// Scoped untimed work: always measured and subtracted from the timed wall
/// time; recorded as a span when tracing is on.
class Untimed {
 public:
  Untimed(Tracer& tracer, std::uint32_t name)
      : tracer_(tracer), span_(tracer, name), t0_(Clock::now()) {}
  ~Untimed() {
    tracer_.add_untimed(std::chrono::duration<double>(Clock::now() - t0_).count());
  }
  Untimed(const Untimed&) = delete;
  Untimed& operator=(const Untimed&) = delete;

 private:
  Tracer& tracer_;
  Scope span_;
  Clock::time_point t0_;
};

}  // namespace perfbench
