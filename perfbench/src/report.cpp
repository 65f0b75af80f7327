#include "report.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>

#include "common/parallel.h"

namespace perfbench {

std::string Percentile::note() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%.4g n=%zu", pct, n);
  return buf;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid), xs.end());
  const double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  const double lo = *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

Percentile honest_percentile(std::vector<double> samples, double want) {
  Percentile p;
  p.n = samples.size();
  if (samples.empty()) return p;
  const double n = static_cast<double>(samples.size());
  // Ten samples beyond percentile q needs n * (1 - q/100) >= 10.
  p.pct = std::max(50.0, std::min(want, 100.0 * (1.0 - 10.0 / n)));
  std::sort(samples.begin(), samples.end());
  // Nearest-rank: the smallest sample with at least pct% of samples <= it.
  const auto rank = static_cast<std::size_t>(std::ceil(p.pct / 100.0 * n));
  p.value = samples[std::max<std::size_t>(rank, 1) - 1];
  return p;
}

void add_p50_p99(Outcome& out, const std::string& base, std::vector<double> samples,
                 double scale) {
  for (double& s : samples) s *= scale;
  const Percentile p50 = honest_percentile(samples, 50.0);
  const Percentile p99 = honest_percentile(std::move(samples), 99.0);
  out.add(base + "_p50", p50.value, p50.note());
  out.add(base + "_p99", p99.value, p99.note());
}

RoundLog run_rounds(double seconds, int cycle,
                    const std::function<RoundTimes(int cycle_index, int input)>& round) {
  RoundLog log;
  const Clock::time_point t0 = Clock::now();
  double last_cycle_s = 0.0;
  for (int c = 0;; ++c) {
    const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    // Start another cycle only while it is expected to end within `seconds`.
    if (c > 0 && elapsed + last_cycle_s > seconds) break;
    const Clock::time_point c0 = Clock::now();
    std::vector<double>& walls = log.round_wall_s.emplace_back();
    for (int i = 0; i < cycle; ++i) {
      const RoundTimes t = round(c, i);
      log.setup_s.push_back(t.setup_s);
      walls.push_back(t.wall_s);
      ++log.rounds;
    }
    if (c == 0) log.peak_rss_mib = peak_rss_mib();
    last_cycle_s = std::chrono::duration<double>(Clock::now() - c0).count();
  }
  return log;
}

double quiet_median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  xs.resize((xs.size() + 3) / 4);
  return median(std::move(xs));
}

std::vector<double> quiet_samples(const std::vector<std::vector<double>>& by_cycle) {
  if (by_cycle.empty()) return {};
  std::vector<double> out;
  std::vector<double> reps;
  for (std::size_t k = 0; k < by_cycle[0].size(); ++k) {
    reps.clear();
    for (const std::vector<double>& cycle : by_cycle) {
      if (cycle.size() != by_cycle[0].size()) {
        throw std::logic_error("cycles recorded different numbers of samples");
      }
      reps.push_back(cycle[k]);
    }
    out.push_back(quiet_median(reps));
  }
  return out;
}

void add_round_metrics(Outcome& out, const RoundLog& log) {
  char note[128];
  std::snprintf(note, sizeof note, "median of %zu set-ups", log.setup_s.size());
  out.add("setup_s", median(log.setup_s), note);
  const std::size_t inputs = log.round_wall_s.empty() ? 0 : log.round_wall_s[0].size();
  double wall = 0.0;
  for (std::size_t i = 0; i < inputs; ++i) {
    std::vector<double> reps;
    for (const std::vector<double>& cycle : log.round_wall_s) reps.push_back(cycle[i]);
    wall += quiet_median(std::move(reps));
  }
  std::snprintf(note, sizeof note,
                "mean over %zu inputs of each input's median over its fastest quarter of %zu rounds",
                inputs, log.round_wall_s.size());
  out.add("wall_s", inputs > 0 ? wall / static_cast<double>(inputs) : 0.0, note);
  out.add("peak_rss_mib", log.peak_rss_mib, "after cycle 0");
}

void add_bypassed(Outcome& out, const std::vector<std::string>& prefixes) {
  for (const MetricSpec& spec : per_layer_specs()) {
    const std::string& name = spec.name;
    bool match = false;
    for (const std::string& p : prefixes) match = match || name.rfind(p, 0) == 0;
    if (!match) continue;
    bool present = false;
    for (const Metric& m : out.metrics) present = present || m.name == name;
    if (!present) out.add(name, 0.0, "layer not run by this workload");
  }
}

void add_trace_metrics(Outcome& out, const Tracer& tracer, double traced_wall_s,
                       double traced_s, double untraced_s) {
  out.add("trace.overhead", untraced_s > 0.0 ? traced_s / untraced_s : 0.0,
          "timed wall of input 0, traced over untraced");
  const double self = tracer.total_self_s({"check"});
  out.add("trace.coverage", traced_wall_s > 0.0 ? self / traced_wall_s : 0.0,
          "span self time / traced timed wall");
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string host_context(const RunConfig& cfg) {
  char buf[512];
  const char* env = std::getenv("MCCS_THREADS");
  std::snprintf(buf, sizeof buf,
                "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
                "\"nproc\":%ld,\"pool_width\":%d,\"MCCS_THREADS\":\"%s\","
                "\"build_type\":\"%s\",\"compiler\":\"%s\"}",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.seconds, cfg.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
                mccs::par::thread_count(), env == nullptr ? "" : env,
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  return buf;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"ffa_speedup", "x"},
      {"small_lat_us_p50", "us"},
      {"small_lat_us_p99", "us"},
      {"bulk_busbw_gbps", "Gbps"},
      {"decision_us_p50", "us"},
      {"decision_us_p99", "us"},
      {"goodput", "share"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"sim.events", "count"},
      {"sim.step_us_p50", "us"},
      {"sim.step_us_p99", "us"},
      {"sim.step_self_s", "s"},
      {"netsim.solves", "count"},
      {"netsim.batches", "count"},
      {"netsim.coalesced_flows", "count"},
      {"netsim.solves_per_event", "ratio"},
      {"netsim.peak_active_flows", "count"},
      {"netsim.allocation_errors", "count"},
      {"netsim.route_fill_us", "us"},
      {"netsim.route_lookup_ns", "ns"},
      {"policy.assign_us_p50", "us"},
      {"policy.assign_us_p99", "us"},
      {"policy.assign_self_s", "s"},
      {"policy.ring_us_p50", "us"},
      {"policy.solve_us_p50", "us"},
      {"policy.solve_us_p99", "us"},
      {"policy.closure_items_mean", "count"},
      {"policy.solves_per_event", "ratio"},
      {"policy.full_assign_us_p50", "us"},
      {"cluster.admit_us_p50", "us"},
      {"cluster.admit_us_p99", "us"},
      {"cluster.queue_depth_peak", "count"},
      {"workload.job_build_us_p50", "us"},
      {"mccs.shim_call_us_p50", "us"},
      {"mccs.shim_call_us_p99", "us"},
      {"mccs.shim_self_s", "s"},
      {"mccs.plan_hit_rate", "share"},
      {"mccs.plan_invalidations", "count"},
      {"mccs.transport_retries", "count"},
      {"mccs.transport_escalations", "count"},
      {"mccs.virt_queue_us_p50", "us"},
      {"mccs.virt_queue_us_p99", "us"},
      {"mccs.virt_sync_us_p50", "us"},
      {"mccs.virt_sync_us_p99", "us"},
      {"mccs.virt_xfer_us_p50", "us"},
      {"mccs.virt_xfer_us_p99", "us"},
      {"mccs.reconfig_stall_us", "us"},
      {"collectives.plan_build_us", "us"},
      {"collectives.plan_acquire_ns", "ns"},
      {"collectives.reduce_gbps", "GB/s"},
      {"gpusim.data_share", "share"},
      {"trace.overhead", "ratio"},
      {"trace.coverage", "share"},
  };
  return kSpecs;
}

Outcome run_workload(const RunConfig& cfg) {
  Outcome out;
  if (cfg.workload == "fleet_768") {
    out = run_fleet_768(cfg);
  } else if (cfg.workload == "tenant_mix") {
    out = run_tenant_mix(cfg);
  } else if (cfg.workload == "control_churn") {
    out = run_control_churn(cfg);
  } else {
    throw std::invalid_argument("unknown workload: " + cfg.workload);
  }
  // Every name exactly once; a missing or duplicate name is a benchmark bug.
  const auto& want = cfg.trace ? per_layer_specs() : end_to_end_specs();
  std::set<std::string> listed;
  for (const MetricSpec& spec : want) listed.insert(spec.name);
  std::set<std::string> seen;
  for (const Metric& m : out.metrics) {
    if (!seen.insert(m.name).second) throw std::logic_error("duplicate metric " + m.name);
    if (listed.count(m.name) == 0) throw std::logic_error("unlisted metric " + m.name);
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  }
  for (const MetricSpec& spec : want) {
    if (seen.count(spec.name) == 0) throw std::logic_error("missing metric " + spec.name);
  }
  return out;
}

std::string result_json(const Outcome& out, bool trace) {
  const auto& order = trace ? per_layer_specs() : end_to_end_specs();
  std::string s = "{\"correct\": ";
  s += out.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : order) {
    for (const Metric& m : out.metrics) {
      if (m.name != spec.name) continue;
      char buf[320];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(), m.value, spec.unit.c_str());
      s += buf;
      first = false;
    }
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
