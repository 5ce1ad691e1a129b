// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Runs one workload for about `seconds` of measurement and prints, as the
// last stdout line, one JSON object {correct, attempted, failed, metrics}:
// every end-to-end metric with --trace 0, every per-layer metric with
// --trace 1. Exits 1 when an output check fails, 2 on bad arguments.
// See perfbench/README.md for the workloads and metrics.
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "dmt/common/alloc_count.h"
#include "dmt/common/parse.h"
#include "harness.h"
#include "workloads.h"

// Exact per-thread allocation counts for the *_allocs_per_* metrics.
DMT_DEFINE_COUNTING_ALLOCATOR();

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

// Must match BENCHMARK.json (run.py checks the printed names against it).
const MetricList& EndToEndMetrics() {
  static const MetricList list = {
      {"setup_s", "s"},          {"rows_per_s", "1/s"},
      {"iter_us_p50", "us"},     {"iter_us_p99", "us"},
      {"train_us_p50", "us"},    {"train_us_p99", "us"},
      {"score_us_p50", "us"},    {"score_us_p99", "us"},
      {"f1_mean", "ratio"},      {"slo_ok_ratio", "ratio"},
      {"ok_ratio", "ratio"},     {"peak_rss_mb", "MB"},
  };
  return list;
}

const MetricList& PerLayerMetrics() {
  static const MetricList list = [] {
    MetricList l = {
        {"streams.scale_ns_per_row", "ns"},
        {"core.fit_ns_per_row", "ns"},
        {"core.predict_ns_per_row", "ns"},
        {"core.fit_us_p99", "us"},
        {"eval.score_ns_per_row", "ns"},
        {"core.fit_allocs_per_row", "count"},
        {"core.predict_allocs_per_row", "count"},
        {"core.splits", "count"},
        {"core.replacements", "count"},
        {"core.prunes", "count"},
        {"core.gain_tests_run", "count"},
        {"core.gain_tests_skipped", "count"},
        {"core.gain_pass_ratio", "ratio"},
        {"core.splits_mean", "count"},
        {"serve.parse_ns_per_request", "ns"},
        {"serve.route_ns_per_request", "ns"},
        {"serve.route_allocs_per_request", "count"},
        {"serve.window_allocs_per_request", "count"},
        {"serve.window_ns_per_request", "ns"},
        {"serve.window_us_p50", "us"},
        {"serve.window_us_p99", "us"},
        {"serve.requests_per_window", "count"},
        {"serve.requests_sent", "count"},
        {"serve.ok", "count"},
        {"serve.err_parse", "count"},
        {"serve.err_retry_after", "count"},
        {"serve.err_warm_start", "count"},
        {"serve.err_bad_row", "count"},
        {"serve.err_other", "count"},
        {"serve.error_ratio", "ratio"},
        {"bridge.ns_per_request", "ns"},
        {"pool.shard_skew", "ratio"},
        {"state_dir.checkpoints", "count"},
        {"state_dir.checkpoint_ms_p50", "ms"},
        {"state_dir.manifest_mb", "MB"},
        {"state_dir.evictions", "count"},
        {"state_dir.evict_window_us_p50", "us"},
        {"state_dir.warm_starts", "count"},
        {"state_dir.warm_start_us_p50", "us"},
        {"state_dir.recover_ms", "ms"},
        {"serial.save_us_per_stream", "us"},
        {"serial.load_us_per_stream", "us"},
        {"serial.archive_kb_mean", "KB"},
    };
    for (const char* layer : {"streams", "eval", "core", "serve", "bridge",
                              "pool", "state_dir", "serial"}) {
      l.push_back({std::string(layer) + ".calls", "count"});
      l.push_back({std::string(layer) + ".self_ms", "ms"});
    }
    for (const char* name : {"trace.wall_ms", "trace.unattributed_ms",
                             "trace.overhead_ms"}) {
      l.push_back({name, "ms"});
    }
    l.push_back({"trace.spans", "count"});
    return l;
  }();
  return list;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload preq-agrawal-dmt|serve-glm-wide|"
               "serve-dmt-durable --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      const std::optional<std::uint64_t> seed = dmt::ParseU64(value);
      if (!seed) return Usage("bad --seed");
      options.seed = *seed;
    } else if (flag == "--seconds") {
      const std::optional<double> seconds = dmt::ParseDouble(value);
      if (!seconds || *seconds <= 0.0) return Usage("bad --seconds");
      options.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  std::error_code error;
  std::filesystem::create_directories(options.work_dir, error);
  if (error) return Usage("cannot create --work-dir");

  perfbench::Result result;
  if (options.workload == "preq-agrawal-dmt") {
    perfbench::RunPreqAgrawalDmt(options, &result);
  } else if (options.workload == "serve-glm-wide") {
    perfbench::RunServeGlmWide(options, &result);
  } else if (options.workload == "serve-dmt-durable") {
    perfbench::RunServeDmtDurable(options, &result);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  result.Check(result.attempted > 0, "no work was attempted");
  const std::string json =
      options.trace ? result.Json(PerLayerMetrics(), /*missing_is_zero=*/true)
                    : result.Json(EndToEndMetrics(), /*missing_is_zero=*/false);
  std::printf("%s\n", json.c_str());
  return result.correct() ? 0 : 1;
}
