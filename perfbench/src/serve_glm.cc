// serve-glm-wide: many small tenants. GLM models for 100,000 streams
// chosen uniformly, SEA rows (3 features), 50/50 train/score, one shard,
// the default window. A warm-up prefix creates every stream (set-up); the
// timed phase replays the request script through RunLineProtocol on file
// descriptors, as `dmt_serve < script` does. The model costs tens of ns,
// so parsing, stream lookup in a map far larger than cache, response
// formatting and the bridge dominate. Uses streams (input generation),
// serve and bridge; bypasses DMT, pool, state_dir and serial.
//
// Two engines are warmed identically. Engine A replays the script through
// the bridge (rows_per_s); engine B replays it through ServeLine directly
// with every response line timestamped (window and request latencies).
// Both see the same sequence of replays, so replay k must produce
// byte-identical transcripts on A and B. A traced run alternates A's
// bridge replays with bare direct replays (the bridge's own cost) and B's
// observed replays with traced ones (the tracing overhead).
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/linear/glm_classifier.h"
#include "dmt/serve/bridge.h"
#include "dmt/serve/engine.h"
#include "dmt/serve/request.h"
#include "dmt/streams/datasets.h"
#include "dmt/streams/scaler.h"
#include "serve_common.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kStreams = 100'000;
constexpr std::size_t kRequests = 100'000;  // one replay of the script
constexpr int kFeatures = 3;
constexpr int kClasses = 2;
// Latency limit of one request (ServeLine call to response line).
constexpr double kLimitUs = 400.0;
// Warm engines built per run; setup_s is their median.
constexpr int kSetupSamples = 3;

struct Inputs {
  std::vector<std::string> names;
  Script warmup;  // one train request per stream, shuffled
  Script script;  // the timed requests
};

Inputs MakeInputs(std::uint64_t seed) {
  Inputs inputs;
  inputs.names = StreamNames(kStreams);
  const std::size_t rows = kStreams + kRequests;
  std::unique_ptr<dmt::streams::Stream> stream =
      dmt::streams::DatasetByName("SEA").make(rows, seed);
  dmt::Batch batch(kFeatures, rows);
  stream->FillBatch(rows, &batch);
  dmt::streams::OnlineMinMaxScaler scaler(kFeatures);
  scaler.FitTransform(&batch);

  dmt::Rng rng(dmt::DeriveSeed(seed, "serve-glm-wide"));
  std::vector<std::uint32_t> order(kStreams);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::size_t row = 0;
  inputs.warmup.text.reserve(kStreams * 48);
  for (const std::uint32_t s : order) {
    AppendRequest(&inputs.warmup, true, s, inputs.names, batch.row(row),
                  batch.label(row));
    ++row;
  }
  inputs.script.text.reserve(kRequests * 48);
  for (std::size_t i = 0; i < kRequests; ++i, ++row) {
    const auto s = static_cast<std::uint32_t>(
        rng.UniformInt(0, static_cast<int>(kStreams) - 1));
    AppendRequest(&inputs.script, rng.Bernoulli(0.5), s, inputs.names,
                  batch.row(row), batch.label(row));
  }
  return inputs;
}

// Engine construction plus the warm-up prefix: the set-up a restarted
// server pays before its first real request.
std::unique_ptr<dmt::serve::ServeEngine> WarmEngine(const Inputs& inputs,
                                                    LineSink* sink,
                                                    double* setup_s) {
  const std::int64_t start = NowNs();
  dmt::serve::ServeConfig config;
  config.num_features = kFeatures;
  config.num_classes = kClasses;
  config.num_shards = 1;
  config.model_kind = "GLM";
  config.factory = [](const std::string&, std::uint64_t seed) {
    dmt::linear::GlmConfig glm;
    glm.num_features = kFeatures;
    glm.num_classes = kClasses;
    glm.seed = seed;
    return std::make_unique<dmt::linear::GlmClassifier>(glm);
  };
  auto engine = std::make_unique<dmt::serve::ServeEngine>(config);
  sink->Clear();
  std::ostream out(sink);
  for (std::size_t i = 0; i < inputs.warmup.size(); ++i) {
    engine->ServeLine(inputs.warmup.line(i), out);
  }
  engine->Flush(out);
  *setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  return engine;
}

// In-memory file descriptor holding `bytes`, positioned at 0.
int MemFd(const char* name, const std::string& bytes) {
  const int fd = memfd_create(name, 0);
  if (fd < 0) return -1;
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) {
      close(fd);
      return -1;
    }
    written += static_cast<std::size_t>(n);
  }
  lseek(fd, 0, SEEK_SET);
  return fd;
}

std::string ReadFd(int fd) {
  const off_t size = lseek(fd, 0, SEEK_END);
  std::string bytes(static_cast<std::size_t>(size > 0 ? size : 0), '\0');
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = pread(fd, bytes.data() + done, bytes.size() - done,
                            static_cast<off_t>(done));
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  bytes.resize(done);
  return bytes;
}

// One replay through RunLineProtocol, script and responses on memfds.
double BridgeReplay(dmt::serve::ServeEngine* engine, int in_fd, int out_fd,
                    Tracer* tracer, std::uint64_t unit, std::string* transcript,
                    Result* result) {
  lseek(in_fd, 0, SEEK_SET);
  result->Check(ftruncate(out_fd, 0) == 0, "ftruncate failed");
  lseek(out_fd, 0, SEEK_SET);
  const std::int64_t start = NowNs();
  int rc = 0;
  {
    SpanScope span(tracer, Layer::kBridge, unit);
    rc = dmt::serve::RunLineProtocol(engine, in_fd, out_fd, nullptr,
                                     /*flush_when_idle=*/false);
  }
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  result->Check(rc == 0, "RunLineProtocol failed");
  *transcript = ReadFd(out_fd);
  return seconds;
}

// Direct replay with every call observed; `due` is when each ServeLine
// call began (a closed loop issues the next request when the last returns).
double DirectReplay(dmt::serve::ServeEngine* engine, const Script& script,
                    Tracer* tracer, LineSink* sink,
                    std::vector<std::int64_t>* due, CallStats* stats) {
  sink->Clear();
  due->assign(script.size(), 0);
  stats->route_ns.reserve(stats->route_ns.size() + script.size());
  stats->window_us.reserve(stats->window_us.size() + script.size() / 32);
  stats->iter_us.reserve(stats->window_us.capacity());
  std::ostream out(sink);
  const std::int64_t start = NowNs();
  for (std::size_t i = 0; i < script.size(); ++i) {
    (*due)[i] = NowNs();
    ObserveCall(*engine, tracer, i, Layer::kServe, stats,
                [&] { engine->ServeLine(script.line(i), out); });
  }
  ObserveCall(*engine, tracer, script.size(), Layer::kServe, stats,
              [&] { engine->Flush(out); });
  return static_cast<double>(NowNs() - start) * 1e-9;
}

// The same replay with nothing observed: the baseline the bridge's cost
// is measured against.
double BareReplay(dmt::serve::ServeEngine* engine, const Script& script,
                  LineSink* sink) {
  sink->Clear();
  sink->set_stamp(false);
  std::ostream out(sink);
  const std::int64_t start = NowNs();
  for (std::size_t i = 0; i < script.size(); ++i) {
    engine->ServeLine(script.line(i), out);
  }
  engine->Flush(out);
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  sink->set_stamp(true);
  return seconds;
}

}  // namespace

void RunServeGlmWide(const Options& options, Result* result) {
  const Inputs inputs = MakeInputs(options.seed);
  const Script& script = inputs.script;
  const double n = static_cast<double>(script.size());
  const int in_fd = MemFd("perfbench-requests", script.text);
  const int out_fd = MemFd("perfbench-responses", std::string());
  if (!result->Check(in_fd >= 0 && out_fd >= 0, "memfd_create failed")) {
    return;
  }
  LineSink sink;
  sink.Reserve(inputs.warmup.size() * 24 + script.size() * 64,
               std::max(inputs.warmup.size(), script.size()) + 1);
  std::vector<std::int64_t> due;

  // Set-up: spare engines that only add samples, each destroyed before the
  // next is built, then the warm engines A and B. Peak RSS is read once A
  // is warm: the inputs plus one warm server, not B's second copy.
  std::vector<double> setup_s(kSetupSamples);
  std::vector<std::uint64_t> counts(kStreams, 0);
  for (int i = 2; i < kSetupSamples; ++i) WarmEngine(inputs, &sink, &setup_s[i]);
  auto a = WarmEngine(inputs, &sink, &setup_s[0]);
  CheckTranscript(sink.text(), inputs.warmup.sent, inputs.names, kClasses,
                  &counts, result);
  const double peak_rss_mb = PeakRssMb();
  auto b = WarmEngine(inputs, &sink, &setup_s[1]);

  std::vector<double> bridge_s, direct_s, bare_s, traced_s;
  std::vector<LatencySamples> replays;  // untraced direct replays
  CallStats traced_stats;
  double parse_ns = 0.0;
  std::size_t parses = 0;
  Tracer tracer;
  ServeTally first;
  std::string digest;
  std::string transcript;
  double traced_wall_ms = 0.0;
  const std::int64_t begin = NowNs();
  for (std::size_t k = 0;
       k < 2 || static_cast<double>(NowNs() - begin) * 1e-9 < options.seconds;
       ++k) {
    // Replay k on both engines; in a traced run odd replays are the
    // alternates (bare on A, traced on B).
    const bool alternate = options.trace && k % 2 == 1;
    if (alternate) {
      bare_s.push_back(BareReplay(a.get(), script, &sink));
      transcript = sink.text();
    } else {
      bridge_s.push_back(BridgeReplay(a.get(), in_fd, out_fd,
                                      options.trace ? &tracer : nullptr, k,
                                      &transcript, result));
      if (options.trace) traced_wall_ms += bridge_s.back() * 1e3;
    }
    CallStats stats;
    if (alternate) {
      const std::int64_t start = NowNs();
      // ParseRequestLine alone over the script, then the traced replay.
      dmt::serve::Request request;
      std::string error;
      for (std::size_t i = 0; i < script.size(); ++i) {
        SpanScope span(&tracer, Layer::kServe, i);
        const std::int64_t t = NowNs();
        dmt::serve::ParseRequestLine(script.line(i), kFeatures, &request,
                                     &error);
        parse_ns += static_cast<double>(NowNs() - t);
        ++parses;
      }
      traced_s.push_back(
          DirectReplay(b.get(), script, &tracer, &sink, &due, &traced_stats));
      traced_wall_ms += static_cast<double>(NowNs() - start) * 1e-6;
    } else {
      direct_s.push_back(
          DirectReplay(b.get(), script, nullptr, &sink, &due, &stats));
    }
    result->Check(transcript == sink.text(),
                  "replay " + std::to_string(k) +
                      " differs between the bridge and the direct engine");
    const ServeTally tally = CheckTranscript(
        sink.text(), script.sent, inputs.names, kClasses, &counts, result);
    if (!alternate) {
      replays.emplace_back();
      RequestLatencies(script, due, sink, tally, kLimitUs, &replays.back());
      replays.back().iter_us = std::move(stats.iter_us);
    }
    // Later replays continue from the engine state the earlier ones left,
    // and how many run depends on the machine's speed, so the digest that
    // must be equal across runs is replay 0's.
    if (k == 0) {
      first = tally;
      digest = Digest(sink.text());
    }
    result->attempted += tally.sent;
    result->failed += tally.errors();
  }
  close(in_fd);
  close(out_fd);
  result->Check(result->failed == 0, "serve-glm-wide answered ERR");
  std::fprintf(stderr,
               "perfbench: serve-glm-wide seed=%llu replays=%zu "
               "transcript=%s f1=%.6f\n",
               static_cast<unsigned long long>(options.seed),
               bridge_s.size() + bare_s.size(), digest.c_str(),
               ServedF1(first, kClasses));

  if (!options.trace) {
    std::vector<std::vector<double>> iter, train, score;
    std::size_t ok_within = 0, sent = 0;
    for (LatencySamples& replay : replays) {
      iter.push_back(std::move(replay.iter_us));
      train.push_back(std::move(replay.train_us));
      score.push_back(std::move(replay.score_us));
      ok_within += replay.ok_within;
      sent += replay.sent;
    }
    // Rate and medians: median over the replays (harness.h); tails pooled.
    result->Metric("setup_s", Median(setup_s), "s");
    result->Metric("rows_per_s", n / Median(bridge_s), "1/s");
    result->Metric("iter_us_p50", PassMedian(iter, 0.5), "us");
    result->Metric("iter_us_p99", Quantile(Pool(iter), 0.99), "us");
    result->Metric("train_us_p50", PassMedian(train, 0.5), "us");
    result->Metric("train_us_p99", Quantile(Pool(train), 0.99), "us");
    result->Metric("score_us_p50", PassMedian(score, 0.5), "us");
    result->Metric("score_us_p99", Quantile(Pool(score), 0.99), "us");
    // Served quality of the first replay (later replays revisit its rows).
    result->Metric("f1_mean", ServedF1(first, kClasses), "ratio");
    result->Metric("slo_ok_ratio",
                   static_cast<double>(ok_within) / static_cast<double>(sent),
                   "ratio");
    result->Metric("ok_ratio",
                   1.0 - static_cast<double>(result->failed) /
                             static_cast<double>(result->attempted),
                   "ratio");
    result->Metric("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  result->Metric("serve.parse_ns_per_request",
                 parse_ns / static_cast<double>(parses), "ns");
  ReportServeCalls(traced_stats, script.size() * traced_s.size(),
                   /*windows_inline=*/true, result);
  result->Metric("bridge.ns_per_request",
                 (Median(bridge_s) - Median(bare_s)) * 1e9 / n, "ns");
  ReportServeTally(first, result);
  ReportTrace(tracer, traced_wall_ms,
              (Median(traced_s) - Median(direct_s)) * 1e3, result);
  tracer.Dump(options.work_dir + "/spans-serve-glm-wide-seed" +
              std::to_string(options.seed) + ".tsv");
}

}  // namespace perfbench
