#pragma once
// Shared benchmark plumbing: run configuration, the metric record every
// workload fills, honest percentiles, the round loop and host context.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test-sized inputs: same code paths, a fraction of the work.
  bool tiny = false;
  /// Where the traced run writes its spans; empty = do not write.
  std::string out_dir;
  /// Test hook: corrupt one output before its correctness check, which must
  /// then fail.
  bool corrupt = false;
};

/// A metric's name and unit, as BENCHMARK.json lists them.
struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Metric {
  std::string name;
  double value = 0.0;
  /// Provenance shown next to the value: the percentile actually reported
  /// and its sample count, or the sample count of a mean.
  std::string note;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness-check failures; any entry makes the run incorrect.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(note)});
  }
  /// Record a failed correctness check (the run reports correct=false).
  void fail(const std::string& what) { errors.push_back(what); }
  [[nodiscard]] bool correct() const { return errors.empty() && failed == 0; }
};

/// A tail percentile that is honest about its sample count: `want` (e.g. 99)
/// is reported only when at least ten samples lie beyond it; otherwise the
/// highest percentile that has ten samples beyond it, never below the
/// median. `pct` is the percentile actually reported.
struct Percentile {
  double value = 0.0;
  double pct = 0.0;
  std::size_t n = 0;
  [[nodiscard]] std::string note() const;
};
Percentile honest_percentile(std::vector<double> samples, double want);

/// Add `<base>_p50` and `<base>_p99` (honest) from `samples`, scaled by `scale`.
void add_p50_p99(Outcome& out, const std::string& base, std::vector<double> samples,
                 double scale = 1.0);

double median(std::vector<double> xs);

/// Rounds of one workload: each round is a set-up followed by a timed
/// phase on input `input` of a cycle of `cycle` inputs. Rounds run in whole
/// cycles (at least one) while the next cycle is expected to end
/// within `seconds`, so every input is measured equally often.
struct RoundTimes {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< timed phase, untimed scopes excluded
};
struct RoundLog {
  std::vector<double> setup_s;                   ///< one per round
  std::vector<std::vector<double>> round_wall_s;  ///< [cycle][input]
  int rounds = 0;
  /// Peak RSS once every input ran: later cycles repeat the same inputs,
  /// and only the benchmark's own sample buffers grow with their number.
  double peak_rss_mib = 0.0;
};
RoundLog run_rounds(double seconds, int cycle,
                    const std::function<RoundTimes(int cycle_index, int input)>& round);

/// Median of the fastest quarter (at least one) of `xs`.
double quiet_median(std::vector<double> xs);

/// Host-time samples recorded per cycle, one per repeated operation in the
/// same order every cycle (the cycles repeat the same inputs): for each
/// operation, the quiet_median of its repetitions. The host's speed drifts
/// by +-20% over tens of seconds and a task-pool wake-up can stall for
/// milliseconds; this measures each operation at the host's quieter moments.
std::vector<double> quiet_samples(const std::vector<std::vector<double>>& by_cycle);

/// Add 0 for every per-layer metric whose name starts with one of
/// `prefixes` and is not set yet: layers this workload does not run.
void add_bypassed(Outcome& out, const std::vector<std::string>& prefixes);

/// Add setup_s (median over rounds), wall_s and peak_rss_mib (after cycle
/// 0). wall_s is the mean over the inputs of each input's quiet_median over
/// the cycles: every input counts once, each at the host's quieter moments
/// for it.
void add_round_metrics(Outcome& out, const RoundLog& log);

/// Add trace.overhead (`traced_s` / `untraced_s`: the timed wall of one
/// input run traced and untraced) and trace.coverage (span self time,
/// checks excluded, over `traced_wall_s`, the summed timed wall of every
/// traced round).
void add_trace_metrics(Outcome& out, const Tracer& tracer, double traced_wall_s,
                       double traced_s, double untraced_s);

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// Host context recorded with every result (JSON object text).
std::string host_context(const RunConfig& cfg);

/// Deterministic per-(seed, stream) seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// --- workloads --------------------------------------------------------------
Outcome run_fleet_768(const RunConfig& cfg);
Outcome run_tenant_mix(const RunConfig& cfg);
Outcome run_control_churn(const RunConfig& cfg);

/// Every end-to-end and per-layer metric, in BENCHMARK.json order. Each
/// workload emits all of them (per-layer: 0 for a layer it does not run).
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

/// Run one workload and check its metric set against the names above.
Outcome run_workload(const RunConfig& cfg);

/// The final result line: {"correct","attempted","failed","metrics"}.
std::string result_json(const Outcome& out, bool trace);

}  // namespace perfbench
