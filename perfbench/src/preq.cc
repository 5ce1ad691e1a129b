// preq-agrawal-dmt: the paper's protocol. DMT runs test-then-train on the
// Agrawal stream (9 features, three incremental drifts whose schedule
// scales with the row count), batches of 0.1% of the stream, in a closed
// single-threaded loop: scale -> PredictBatch -> ConfusionMatrix ->
// PartialFit. Uses streams, core and eval; bypasses serve, bridge, pool,
// state_dir and serial.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "dmt/common/alloc_count.h"
#include "dmt/common/stats.h"
#include "dmt/common/types.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/eval/metrics.h"
#include "dmt/eval/prequential.h"
#include "dmt/obs/telemetry.h"
#include "dmt/streams/datasets.h"
#include "dmt/streams/scaler.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Stream length of one pass: 1000 test-then-train iterations of 100 rows.
constexpr std::size_t kRows = 100'000;
constexpr std::size_t kBatch = kRows / 1000;
// Latency limit of one test-then-train iteration for slo_ok_ratio.
constexpr double kIterLimitUs = 600.0;

std::unique_ptr<dmt::streams::Stream> MakeStream(std::uint64_t seed) {
  return dmt::streams::DatasetByName("Agrawal").make(kRows, seed);
}

dmt::core::DmtConfig ModelConfig(std::uint64_t seed) {
  dmt::core::DmtConfig config;
  config.num_features = 9;
  config.num_classes = 2;
  config.seed = seed;
  return config;
}

struct PassStats {
  double setup_s = 0.0;
  double loop_s = 0.0;
  std::vector<double> iter_us;   // PredictBatch + PartialFit
  std::vector<double> fit_us;    // PartialFit
  std::vector<double> score_us;  // PredictBatch
  double scale_ns = 0.0;         // summed over the pass
  double eval_ns = 0.0;
  std::size_t fit_allocs = 0;
  std::size_t predict_allocs = 0;
  std::size_t rows = 0;
  std::size_t batches = 0;
  std::size_t failed = 0;
  dmt::RunningStats f1;
  dmt::RunningStats splits;
};

PassStats RunPass(std::uint64_t seed, Tracer* tracer,
                  dmt::obs::TelemetryRegistry* telemetry) {
  PassStats stats;
  const std::int64_t setup_start = NowNs();
  std::vector<dmt::Batch> batches;
  {
    std::unique_ptr<dmt::streams::Stream> stream = MakeStream(seed);
    batches.reserve(kRows / kBatch);
    while (true) {
      dmt::Batch batch(stream->num_features(), kBatch);
      if (stream->FillBatch(kBatch, &batch) == 0) break;
      batches.push_back(std::move(batch));
    }
  }
  dmt::core::DynamicModelTree model(ModelConfig(seed));
  if (telemetry != nullptr) model.AttachTelemetry(telemetry);
  dmt::streams::OnlineMinMaxScaler scaler(9);
  dmt::eval::ConfusionMatrix confusion(2);
  dmt::ProbaMatrix proba(kBatch, 2);
  stats.iter_us.reserve(batches.size());
  stats.fit_us.reserve(batches.size());
  stats.score_us.reserve(batches.size());
  stats.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

  const std::int64_t loop_start = NowNs();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    dmt::Batch& batch = batches[b];
    const std::int64_t t0 = NowNs();
    {
      SpanScope span(tracer, Layer::kStreams, b);
      scaler.FitTransform(&batch);
    }
    const std::int64_t t1 = NowNs();
    bool ok = true;
    {
      SpanScope span(tracer, Layer::kCore, b);
      dmt::alloc_count::Reset();
      try {
        model.PredictBatch(batch, &proba);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: PredictBatch failed: %s\n", e.what());
        ok = false;
      }
      stats.predict_allocs += dmt::alloc_count::allocations;
    }
    const std::int64_t t2 = NowNs();
    if (ok) {
      SpanScope span(tracer, Layer::kEval, b);
      confusion.Reset();
      confusion.AddBatch(proba, batch);
      stats.f1.Add(confusion.WeightedF1());
    }
    const std::int64_t t3 = NowNs();
    {
      SpanScope span(tracer, Layer::kCore, b);
      dmt::alloc_count::Reset();
      try {
        model.PartialFit(batch);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: PartialFit failed: %s\n", e.what());
        ok = false;
      }
      stats.fit_allocs += dmt::alloc_count::allocations;
    }
    const std::int64_t t4 = NowNs();
    stats.splits.Add(static_cast<double>(model.NumSplits()));
    stats.scale_ns += static_cast<double>(t1 - t0);
    stats.eval_ns += static_cast<double>(t3 - t2);
    stats.score_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    stats.fit_us.push_back(static_cast<double>(t4 - t3) * 1e-3);
    stats.iter_us.push_back(static_cast<double>((t2 - t1) + (t4 - t3)) * 1e-3);
    stats.rows += batch.size();
    ++stats.batches;
    if (!ok) ++stats.failed;
  }
  stats.loop_s = static_cast<double>(NowNs() - loop_start) * 1e-9;
  return stats;
}

std::vector<std::vector<double>> PerPass(const std::vector<PassStats>& passes,
                                         std::vector<double> PassStats::*field) {
  std::vector<std::vector<double>> all;
  for (const PassStats& pass : passes) all.push_back(pass.*field);
  return all;
}

}  // namespace

void RunPreqAgrawalDmt(const Options& options, Result* result) {
  std::vector<PassStats> untraced;
  std::vector<PassStats> traced;
  Tracer tracer;
  // Attached to the first traced pass; its counters are a pure function of
  // the stream, so one pass suffices.
  dmt::obs::TelemetryRegistry telemetry;
  const std::int64_t start = NowNs();
  // A traced run alternates untraced and traced passes of the same loop,
  // so the tracing overhead is measured on identical work.
  while (untraced.empty() || (options.trace && traced.empty()) ||
         static_cast<double>(NowNs() - start) * 1e-9 < options.seconds) {
    const bool trace_this = options.trace && untraced.size() > traced.size();
    if (trace_this) {
      traced.push_back(RunPass(options.seed, &tracer,
                               traced.empty() ? &telemetry : nullptr));
    } else {
      untraced.push_back(RunPass(options.seed, nullptr, nullptr));
    }
  }

  // Every pass replays the same stream, so quality figures must repeat
  // exactly; and they must equal eval::RunPrequential on that stream.
  const PassStats& first = untraced.front();
  std::vector<const PassStats*> all;
  for (const PassStats& pass : untraced) all.push_back(&pass);
  for (const PassStats& pass : traced) all.push_back(&pass);
  for (const PassStats* pass : all) {
    result->Check(pass->f1.mean() == first.f1.mean() &&
                      pass->splits.mean() == first.splits.mean(),
                  "f1/splits differ between passes of the same stream");
    result->attempted += pass->batches;
    result->failed += pass->failed;
  }
  {
    std::unique_ptr<dmt::streams::Stream> stream = MakeStream(options.seed);
    dmt::core::DynamicModelTree model(ModelConfig(options.seed));
    dmt::eval::PrequentialConfig config;
    config.expected_samples = kRows;
    const dmt::eval::PrequentialResult reference =
        dmt::eval::RunPrequential(stream.get(), &model, config);
    result->Check(reference.num_batches == first.batches &&
                      reference.total_samples == first.rows,
                  "RunPrequential batch structure differs");
    result->Check(reference.f1.mean() == first.f1.mean(),
                  "f1_mean differs from eval::RunPrequential");
    result->Check(reference.num_splits.mean() == first.splits.mean(),
                  "splits_mean differs from eval::RunPrequential");
  }
  std::fprintf(stderr,
               "perfbench: preq-agrawal-dmt seed=%llu f1_mean=%.6f "
               "splits_mean=%.4f passes=%zu\n",
               static_cast<unsigned long long>(options.seed), first.f1.mean(),
               first.splits.mean(), all.size());

  if (!options.trace) {
    std::vector<double> setup, rows_per_s;
    for (const PassStats& pass : untraced) {
      setup.push_back(pass.setup_s);
      rows_per_s.push_back(static_cast<double>(pass.rows) / pass.loop_s);
    }
    const auto iter = PerPass(untraced, &PassStats::iter_us);
    const auto fit = PerPass(untraced, &PassStats::fit_us);
    const auto score = PerPass(untraced, &PassStats::score_us);
    const std::vector<double> all_iter = Pool(iter);
    std::size_t within = 0;
    for (const double us : all_iter) within += us <= kIterLimitUs ? 1 : 0;
    result->Metric("setup_s", Median(setup), "s");
    result->Metric("rows_per_s", Median(rows_per_s), "1/s");
    result->Metric("iter_us_p50", PassMedian(iter, 0.5), "us");
    result->Metric("iter_us_p99", Quantile(all_iter, 0.99), "us");
    result->Metric("train_us_p50", PassMedian(fit, 0.5), "us");
    result->Metric("train_us_p99", Quantile(Pool(fit), 0.99), "us");
    result->Metric("score_us_p50", PassMedian(score, 0.5), "us");
    result->Metric("score_us_p99", Quantile(Pool(score), 0.99), "us");
    result->Metric("f1_mean", first.f1.mean(), "ratio");
    result->Metric("slo_ok_ratio",
                   static_cast<double>(within) /
                       static_cast<double>(all_iter.size()),
                   "ratio");
    result->Metric("ok_ratio",
                   1.0 - static_cast<double>(result->failed) /
                             static_cast<double>(result->attempted),
                   "ratio");
    result->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  double rows = 0.0, scale_ns = 0.0, eval_ns = 0.0, fit_allocs = 0.0,
         predict_allocs = 0.0, traced_ms = 0.0;
  std::vector<double> untraced_ms, traced_pass_ms;
  for (const PassStats& pass : traced) {
    rows += static_cast<double>(pass.rows);
    scale_ns += pass.scale_ns;
    eval_ns += pass.eval_ns;
    fit_allocs += static_cast<double>(pass.fit_allocs);
    predict_allocs += static_cast<double>(pass.predict_allocs);
    traced_ms += pass.loop_s * 1e3;
    traced_pass_ms.push_back(pass.loop_s * 1e3);
  }
  for (const PassStats& pass : untraced) untraced_ms.push_back(pass.loop_s * 1e3);
  const std::vector<double> fit_us = Pool(PerPass(traced, &PassStats::fit_us));
  const std::vector<double> score_us =
      Pool(PerPass(traced, &PassStats::score_us));
  const double fit_total = std::accumulate(fit_us.begin(), fit_us.end(), 0.0);
  const double score_total =
      std::accumulate(score_us.begin(), score_us.end(), 0.0);
  result->Metric("streams.scale_ns_per_row", scale_ns / rows, "ns");
  result->Metric("core.fit_ns_per_row", fit_total * 1e3 / rows, "ns");
  result->Metric("core.predict_ns_per_row", score_total * 1e3 / rows, "ns");
  result->Metric("core.fit_us_p99", Quantile(fit_us, 0.99), "us");
  result->Metric("eval.score_ns_per_row", eval_ns / rows, "ns");
  result->Metric("core.fit_allocs_per_row", fit_allocs / rows, "count");
  result->Metric("core.predict_allocs_per_row", predict_allocs / rows, "count");
  const auto counter = [&telemetry](const char* name) {
    return static_cast<double>(*telemetry.Counter(name));
  };
  result->Metric("core.splits", counter("dmt.splits"), "count");
  result->Metric("core.replacements", counter("dmt.replacements"), "count");
  result->Metric("core.prunes", counter("dmt.prunes"), "count");
  result->Metric("core.gain_tests_run", counter("dmt.gain_tests_run"), "count");
  result->Metric("core.gain_tests_skipped", counter("dmt.gain_tests_skipped"),
                 "count");
  const double tests = counter("dmt.gain_tests");
  result->Metric("core.gain_pass_ratio",
                 tests > 0 ? counter("dmt.gain_tests_passed") / tests : 0.0,
                 "ratio");
  result->Metric("core.splits_mean", first.splits.mean(), "count");
  // Per-pass overhead: median traced pass minus median untraced pass.
  ReportTrace(tracer, traced_ms, Median(traced_pass_ms) - Median(untraced_ms),
              result);
  tracer.Dump(options.work_dir + "/spans-preq-agrawal-dmt-seed" +
              std::to_string(options.seed) + ".tsv");
}

}  // namespace perfbench
