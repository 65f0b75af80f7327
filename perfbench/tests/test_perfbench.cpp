// Tests of the benchmark itself: its metric contract with BENCHMARK.json,
// the span self-time arithmetic, honest percentiles, and that a corrupted
// output makes each workload's correctness check fail.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

/// (name, unit) pairs of one section of BENCHMARK.json, in file order.
std::vector<std::pair<std::string, std::string>> spec_section(const std::string& section) {
  std::ifstream f(PERFBENCH_SPEC);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const std::size_t begin = text.find("\"" + section + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const std::size_t end = text.find(']', begin);
  const std::string body = text.substr(begin, end - begin);
  const std::regex entry(R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> pairs_of(const std::vector<MetricSpec>& specs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MetricSpec& s : specs) out.emplace_back(s.name, s.unit);
  return out;
}

TEST(Spec, MetricListsMatchBenchmarkJson) {
  EXPECT_EQ(pairs_of(end_to_end_specs()), spec_section("end_to_end"));
  EXPECT_EQ(pairs_of(per_layer_specs()), spec_section("per_layer"));
}

RunConfig tiny(const std::string& workload, bool trace) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = 7;
  cfg.seconds = 0.01;
  cfg.trace = trace;
  cfg.tiny = true;
  return cfg;
}

const char* const kWorkloads[] = {"fleet_768", "tenant_mix", "control_churn"};

TEST(Workloads, TinyRunEmitsEveryMetric) {
  for (const char* w : kWorkloads) {
    for (const bool trace : {false, true}) {
      SCOPED_TRACE(std::string(w) + (trace ? " traced" : " untraced"));
      const Outcome out = run_workload(tiny(w, trace));  // throws on a missing name
      EXPECT_TRUE(out.correct());
      EXPECT_GT(out.attempted, 0u);
      const auto& specs = trace ? per_layer_specs() : end_to_end_specs();
      ASSERT_EQ(out.metrics.size(), specs.size());
      if (!trace) {
        for (const Metric& m : out.metrics) EXPECT_NE(m.value, 0.0) << m.name;
      }
    }
  }
}

TEST(Workloads, VirtualMetricsRepeatExactly) {
  for (const char* w : kWorkloads) {
    SCOPED_TRACE(w);
    const Outcome a = run_workload(tiny(w, false));
    const Outcome b = run_workload(tiny(w, false));
    for (const char* name : {"ffa_speedup", "small_lat_us_p50", "small_lat_us_p99",
                             "bulk_busbw_gbps", "goodput"}) {
      double va = -1.0, vb = -2.0;
      for (const Metric& m : a.metrics) va = m.name == name ? m.value : va;
      for (const Metric& m : b.metrics) vb = m.name == name ? m.value : vb;
      EXPECT_EQ(va, vb) << name;
    }
  }
}

TEST(Workloads, CorruptedOutputFailsTheCheck) {
  for (const char* w : kWorkloads) {
    SCOPED_TRACE(w);
    RunConfig cfg = tiny(w, false);
    cfg.corrupt = true;
    const Outcome out = run_workload(cfg);
    EXPECT_FALSE(out.correct());
    EXPECT_FALSE(out.errors.empty());
  }
}

TEST(Trace, SelfTimeSubtractsDirectChildren) {
  // root [0,10] -> a [1,4] -> a1 [2,3]; root -> b [5,9]
  const std::vector<Span> spans = {
      {0, Span::kNoParent, 0.0, 10.0},
      {1, 0, 1.0, 4.0},
      {2, 1, 2.0, 3.0},
      {3, 0, 5.0, 9.0},
  };
  const std::vector<double> self = self_times(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2] + self[3], 10.0);
}

TEST(Trace, RecorderSelfTimesSumToRootDuration) {
  Tracer t(true);
  const auto root = t.intern("root");
  const auto child = t.intern("child");
  const auto check = t.intern("check");
  for (int i = 0; i < 3; ++i) {
    Scope r(t, root);
    {
      Scope c(t, child);
      Scope cc(t, child);
    }
    Untimed u(t, check);
  }
  const SpanStats& rs = t.stats("root");
  EXPECT_EQ(rs.count, 3u);
  EXPECT_EQ(t.stats("child").count, 6u);
  EXPECT_NEAR(t.total_self_s({}), rs.total_s, 1e-12);
  EXPECT_NEAR(t.total_self_s({"check"}), rs.total_s - t.stats("check").total_s, 1e-12);
  EXPECT_GT(t.untimed_s(), 0.0);
}

TEST(Trace, DisabledRecorderRecordsNothing) {
  Tracer t(false);
  const auto id = t.intern("x");
  { Scope s(t, id); }
  EXPECT_EQ(t.stats("x").count, 0u);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyond) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const Percentile p = honest_percentile(xs, 99.0);
  EXPECT_DOUBLE_EQ(p.pct, 90.0);  // 10 samples beyond p90 out of 100
  EXPECT_DOUBLE_EQ(p.value, 90.0);
  EXPECT_EQ(p.n, 100u);

  for (int i = 101; i <= 2000; ++i) xs.push_back(i);
  const Percentile q = honest_percentile(xs, 99.0);
  EXPECT_DOUBLE_EQ(q.pct, 99.0);
  EXPECT_DOUBLE_EQ(q.value, 1980.0);

  const Percentile m = honest_percentile({3.0, 1.0, 2.0}, 99.0);
  EXPECT_DOUBLE_EQ(m.pct, 50.0);  // too few samples for any tail: the median
  EXPECT_DOUBLE_EQ(m.value, 2.0);
}

}  // namespace
}  // namespace perfbench
