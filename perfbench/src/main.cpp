// perfbench: the repository benchmark.
//
//   perfbench --workload <fleet_768|tenant_mix|control_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints the host context and each metric's provenance (percentile and
// sample count) as JSON lines, then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics from the traced run with --trace 1. Exits
// non-zero, without a result line, on a usage error or a benchmark fault.
// A failed correctness check is reported as "correct": false and exit 1.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed malloc thresholds: memory a round frees is reused by the next.
  // With glibc's dynamic thresholds, whether each round's buffers fault in
  // afresh differs from process to process (tenant_mix set-up: 10 or 26 ms).
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(cfg.seconds > 0.0)) usage("bad --seconds");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace");
      cfg.trace = val == "1";
    } else if (arg == "--out") {
      cfg.out_dir = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  std::printf("{\"context\": %s}\n", perfbench::host_context(cfg).c_str());
  std::fflush(stdout);
  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  for (const std::string& e : out.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::string notes = "{\"notes\": {";
  bool first = true;
  for (const perfbench::Metric& m : out.metrics) {
    if (m.note.empty()) continue;
    notes += (first ? "\"" : ", \"") + m.name + "\": \"" + m.note + "\"";
    first = false;
  }
  std::printf("%s}}\n", notes.c_str());
  std::printf("%s\n", perfbench::result_json(out, cfg.trace).c_str());
  return out.correct() ? 0 : 1;
}
