// serve-dmt-durable: interactive traffic on durable, bounded state. DMT
// models for 2,000 streams with Zipf(1) popularity, Agrawal rows, 80/20
// train/score, two shards, a state dir that checkpoints several times per
// run and a resident bound below the live set, so eviction and warm start
// recur. Set-up is ServeEngine construction recovering from a prepared
// manifest: the restart cost.
//
// The timed phase replays a seeded list of bursts, again and again, on the
// last engine recovered at set-up. It is a closed loop: the driver sends a
// burst as soon as the previous one has been answered, calling ServeLine
// for each of its requests and Flush after it, as the socket bridge does
// once a client's burst has been read. Window boundaries follow the
// bursts, so the transcript of replay 0 is the same on every run. Latency
// runs from the burst's send to the emission of each response line. Uses
// streams, core, serve, pool, state_dir and serial; bypasses bridge.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/core/dynamic_model_tree.h"
#include "dmt/serial/model_io.h"
#include "dmt/serve/engine.h"
#include "dmt/serve/request.h"
#include "dmt/serve/state_dir.h"
#include "dmt/streams/datasets.h"
#include "dmt/streams/scaler.h"
#include "serve_common.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kStreams = 2'000;
constexpr int kFeatures = 9;
constexpr int kClasses = 2;
constexpr std::size_t kShards = 2;
// Two streams fewer than the live set: a replay parks and warm-starts a
// few of the least popular streams (0 to 4 times), in well under 1% of
// its windows, so the p99s stay on regular windows.
constexpr std::size_t kMaxStreams = 1'998;
// Windows between checkpoints. The warm-up closes 657 windows and recovery
// restores that count; a replay then closes one window per burst
// (kBursts), so replay 0 crosses window 1,500 only, and every replay lands
// one or two checkpoints.
constexpr std::size_t kCheckpointEvery = 1'500;
// Requests of the warm-up that builds the prepared manifest, after one
// train request per stream.
constexpr std::size_t kWarmupRequests = 40'000;
// Bursts per replay. Their sizes are 1..15 requests, each size equally
// often in a seeded order, so every replay sends 15,000 requests whatever
// the seed.
constexpr std::size_t kBursts = 1'875;
constexpr int kMaxBurst = 15;
// Latency limit of one request for slo_ok_ratio.
constexpr double kLimitUs = 1'000.0;
// Engine recoveries per run; setup_s is their median.
constexpr int kSetupSamples = 5;
// Scripts the replays take turns with. They share the burst sizes but draw
// their streams apart, so a replay touches some streams the previous one
// left idle, and warm starts and evictions recur; with one script, replay
// k + 1 would touch exactly the streams replay k kept resident.
constexpr std::size_t kScripts = 2;

struct Inputs {
  std::vector<std::string> names;
  Script warmup;
  std::vector<Script> scripts;
  std::vector<std::size_t> burst_end;  // one past each burst's last request
};

Inputs MakeInputs(std::uint64_t seed) {
  Inputs inputs;
  inputs.names = StreamNames(kStreams);
  dmt::Rng rng(dmt::DeriveSeed(seed, "serve-dmt-durable"));
  // Zipf(1) over popularity ranks; a seeded permutation maps ranks to
  // streams.
  std::vector<double> cdf(kStreams);
  double total = 0.0;
  for (std::size_t k = 0; k < kStreams; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  std::vector<std::uint32_t> by_rank(kStreams);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  std::shuffle(by_rank.begin(), by_rank.end(), rng.engine());
  const auto zipf = [&] {
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.Uniform()) - cdf.begin());
    return by_rank[std::min(rank, kStreams - 1)];
  };

  // Burst sizes first: they fix how many rows are needed.
  std::vector<int> burst_size(kBursts);
  std::size_t scheduled = 0;
  for (std::size_t b = 0; b < kBursts; ++b) {
    burst_size[b] = 1 + static_cast<int>(b % kMaxBurst);
    scheduled += static_cast<std::size_t>(burst_size[b]);
  }
  std::shuffle(burst_size.begin(), burst_size.end(), rng.engine());

  const std::size_t rows = kStreams + kWarmupRequests + kScripts * scheduled;
  std::unique_ptr<dmt::streams::Stream> stream =
      dmt::streams::DatasetByName("Agrawal").make(rows, seed);
  dmt::Batch batch(kFeatures, rows);
  stream->FillBatch(rows, &batch);
  dmt::streams::OnlineMinMaxScaler scaler(kFeatures);
  scaler.FitTransform(&batch);

  std::size_t row = 0;
  const auto request = [&](Script* script, std::uint32_t s, bool train) {
    AppendRequest(script, train, s, inputs.names, batch.row(row),
                  batch.label(row));
    ++row;
  };
  std::vector<std::uint32_t> order(kStreams);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng.engine());
  for (const std::uint32_t s : order) request(&inputs.warmup, s, true);
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    request(&inputs.warmup, zipf(), rng.Bernoulli(0.8));
  }
  // Script 0 opens with the stream the warm-up touched least recently. The
  // engine parks streams least recently used first, so that stream is
  // parked when replay 0 starts, and every run warm-starts and evicts at
  // least once, whatever the seed.
  std::vector<std::size_t> last_touch(kStreams, 0);
  for (std::size_t i = 0; i < inputs.warmup.size(); ++i) {
    last_touch[inputs.warmup.sent[i].stream] = i;
  }
  const auto coldest = static_cast<std::uint32_t>(
      std::min_element(last_touch.begin(), last_touch.end()) -
      last_touch.begin());
  inputs.scripts.resize(kScripts);
  for (std::size_t k = 0; k < kScripts; ++k) {
    Script& script = inputs.scripts[k];
    for (const int size : burst_size) {
      for (int i = 0; i < size; ++i) {
        const bool opening = k == 0 && script.size() == 0;
        request(&script, opening ? coldest : zipf(), rng.Bernoulli(0.8));
      }
      if (k == 0) inputs.burst_end.push_back(script.size());
    }
  }
  return inputs;
}

dmt::serve::ServeConfig EngineConfig(std::uint64_t seed,
                                     const std::string& state_dir) {
  dmt::serve::ServeConfig config;
  config.num_features = kFeatures;
  config.num_classes = kClasses;
  config.num_shards = kShards;
  config.seed = seed;
  config.model_kind = "DMT";
  config.state_dir = state_dir;
  config.checkpoint_every = kCheckpointEvery;
  config.max_streams = kMaxStreams;
  config.factory = [](const std::string&, std::uint64_t model_seed) {
    dmt::core::DmtConfig dmt;
    dmt.num_features = kFeatures;
    dmt.num_classes = kClasses;
    dmt.seed = model_seed;
    return std::make_unique<dmt::core::DynamicModelTree>(dmt);
  };
  return config;
}

std::string NewestManifest(const std::string& dir) {
  std::string newest;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("manifest-", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".dmtm" && name > newest) {
      newest = name;
    }
  }
  return newest;
}

// A fresh state dir holding only the prepared manifest.
std::string StageStateDir(const std::string& work, const std::string& manifest,
                          const std::string& name) {
  const std::string dir = work + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy_file(work + "/template/" + manifest, dir + "/" + manifest);
  return dir;
}

struct PassOutput {
  double wall_s = 0.0;
  std::vector<std::int64_t> sent_ns;  // per request: its burst's send
  CallStats calls;
  LatencySamples latency;
};

// One replay of `script` on the long-lived engine.
PassOutput RunPass(const Inputs& inputs, const Script& script,
                   dmt::serve::ServeEngine* engine, Tracer* tracer,
                   LineSink* sink) {
  PassOutput pass;
  sink->Clear();
  std::ostream out(sink);
  pass.sent_ns.assign(script.size(), 0);
  pass.calls.route_ns.reserve(script.size());
  pass.calls.window_us.reserve(kBursts + script.size() / 64);
  pass.calls.iter_us.reserve(pass.calls.window_us.capacity());
  const std::int64_t loop_start = NowNs();
  std::size_t next = 0;
  for (std::size_t b = 0; b < kBursts; ++b) {
    const std::int64_t sent = NowNs();
    for (; next < inputs.burst_end[b]; ++next) {
      pass.sent_ns[next] = sent;
      ObserveCall(*engine, tracer, next, Layer::kPool, &pass.calls,
                  [&] { engine->ServeLine(script.line(next), out); });
    }
    ObserveCall(*engine, tracer, next, Layer::kPool, &pass.calls,
                [&] { engine->Flush(out); });
  }
  pass.wall_s = static_cast<double>(NowNs() - loop_start) * 1e-9;
  return pass;
}

// Restricts this thread, and the threads it starts afterwards (the shard
// workers), to the last CPU it may run on. On a shared VM a window that
// waits for a worker on another vCPU waits whenever the host has preempted
// that vCPU, and those waits set the p99s: unpinned, the p99s of two runs
// differed up to tenfold. On one CPU the shards' tasks take turns with the
// routing thread, so the workload measures the cost of dispatching
// windows to the pool, not their parallel speed-up.
void PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) last = cpu;
  }
  if (last < 0) return;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort
}

}  // namespace

void RunServeDmtDurable(const Options& options, Result* result) {
  PinToOneCpu();
  const Inputs inputs = MakeInputs(options.seed);
  const Script& script = inputs.scripts[0];
  const std::string work =
      options.work_dir + "/durable-" + std::to_string(options.seed);
  fs::remove_all(work);
  fs::create_directories(work);

  // The prepared manifest: every stream created, then a Zipf warm-up.
  std::vector<std::uint64_t> warm_counts(kStreams, 0);
  {
    dmt::serve::ServeEngine engine(
        EngineConfig(options.seed, work + "/template"));
    LineSink warm_sink;
    std::ostream out(&warm_sink);
    for (std::size_t i = 0; i < inputs.warmup.size(); ++i) {
      engine.ServeLine(inputs.warmup.line(i), out);
    }
    engine.Finish(out);
    CheckTranscript(warm_sink.text(), inputs.warmup.sent, inputs.names,
                    kClasses, &warm_counts, result);
  }
  const std::string manifest = NewestManifest(work + "/template");
  if (!result->Check(!manifest.empty(), "warm-up wrote no manifest")) return;

  // Set-up: recoveries from fresh copies of the prepared manifest. The
  // last one is the engine that serves the timed phase.
  std::vector<double> setup_s;
  std::unique_ptr<dmt::serve::ServeEngine> engine;
  for (int i = 0; i < kSetupSamples; ++i) {
    const std::string dir = StageStateDir(work, manifest, "serve");
    engine.reset();
    const std::int64_t start = NowNs();
    engine = std::make_unique<dmt::serve::ServeEngine>(
        EngineConfig(options.seed, dir));
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }

  LineSink sink;
  sink.Reserve(script.size() * 64, script.size() + 1);
  std::vector<PassOutput> untraced, traced;
  Tracer tracer;
  std::string digest;
  ServeTally first;
  // Train counts continue from the warm-up's, replay after replay.
  std::vector<std::uint64_t> counts = warm_counts;
  std::uint64_t checkpoints = 0, evictions = 0, warm_starts = 0;
  double peak_rss_mb = 0.0;
  const std::int64_t begin = NowNs();
  // A traced run alternates untraced and traced replays of the same loop.
  while (untraced.empty() || (options.trace && traced.empty()) ||
         static_cast<double>(NowNs() - begin) * 1e-9 < options.seconds) {
    const bool trace_this = options.trace && untraced.size() > traced.size();
    const Script& replayed =
        inputs.scripts[(untraced.size() + traced.size()) % kScripts];
    PassOutput pass = RunPass(inputs, replayed, engine.get(),
                              trace_this ? &tracer : nullptr, &sink);
    const ServeTally tally = CheckTranscript(
        sink.text(), replayed.sent, inputs.names, kClasses, &counts, result);
    if (digest.empty()) {
      // Later replays continue from the state the earlier ones left, and
      // how many run depends on the machine's speed, so the digest that
      // must be equal across runs is replay 0's.
      first = tally;
      digest = Digest(sink.text());
      peak_rss_mb = PeakRssMb();
      std::fprintf(stderr,
                   "perfbench: serve-dmt-durable seed=%llu transcript=%s "
                   "f1=%.6f requests=%zu checkpoints=%llu evictions=%llu "
                   "warm_starts=%llu\n",
                   static_cast<unsigned long long>(options.seed),
                   digest.c_str(), ServedF1(tally, kClasses), script.size(),
                   static_cast<unsigned long long>(pass.calls.checkpoints),
                   static_cast<unsigned long long>(pass.calls.evictions),
                   static_cast<unsigned long long>(pass.calls.warm_starts));
    }
    RequestLatencies(replayed, pass.sent_ns, sink, tally, kLimitUs,
                     &pass.latency);
    pass.latency.iter_us = pass.calls.iter_us;
    checkpoints += pass.calls.checkpoints;
    evictions += pass.calls.evictions;
    warm_starts += pass.calls.warm_starts;
    result->attempted += tally.sent;
    result->failed += tally.errors();
    (trace_this ? traced : untraced).push_back(std::move(pass));
  }
  result->Check(checkpoints > 0 && evictions > 0 && warm_starts > 0,
                "the run recorded no checkpoint, eviction or warm start");
  std::vector<double> shard_rows;
  for (std::size_t s = 0; s < engine->num_shards(); ++s) {
    const dmt::serve::Shard& shard = engine->shard(s);
    shard_rows.push_back(
        static_cast<double>(*shard.train_rows + *shard.score_rows));
  }
  engine.reset();

  const double n = static_cast<double>(script.size());
  if (!options.trace) {
    // Rates and medians: median over the passes (harness.h); tails pooled.
    std::vector<std::vector<double>> iter, train, score;
    std::vector<double> rows_per_s;
    std::size_t ok_within = 0, sent = 0;
    for (PassOutput& pass : untraced) {
      iter.push_back(std::move(pass.latency.iter_us));
      train.push_back(std::move(pass.latency.train_us));
      score.push_back(std::move(pass.latency.score_us));
      ok_within += pass.latency.ok_within;
      sent += pass.latency.sent;
      rows_per_s.push_back(n / pass.wall_s);
    }
    result->Metric("setup_s", Median(setup_s), "s");
    result->Metric("rows_per_s", Median(rows_per_s), "1/s");
    result->Metric("iter_us_p50", PassMedian(iter, 0.50), "us");
    result->Metric("iter_us_p99", Quantile(Pool(iter), 0.99), "us");
    result->Metric("train_us_p50", PassMedian(train, 0.50), "us");
    result->Metric("train_us_p99", Quantile(Pool(train), 0.99), "us");
    result->Metric("score_us_p50", PassMedian(score, 0.50), "us");
    result->Metric("score_us_p99", Quantile(Pool(score), 0.99), "us");
    result->Metric("f1_mean", ServedF1(first, kClasses), "ratio");
    result->Metric("slo_ok_ratio",
                   static_cast<double>(ok_within) / static_cast<double>(sent),
                   "ratio");
    result->Metric("ok_ratio",
                   1.0 - static_cast<double>(result->failed) /
                             static_cast<double>(result->attempted),
                   "ratio");
    result->Metric("peak_rss_mb", peak_rss_mb, "MB");
    fs::remove_all(work);
    return;
  }

  // Traced run: the durability layers timed on the prepared manifest.
  const std::int64_t traced_start = NowNs();
  std::optional<dmt::serve::Manifest> loaded;
  double recover_ms = 0.0;
  {
    const std::int64_t start = NowNs();
    SpanScope span(&tracer, Layer::kStateDir, 0);
    loaded = dmt::serve::LoadNewestManifest(work + "/template");
    recover_ms = static_cast<double>(NowNs() - start) * 1e-6;
  }
  double save_us = 0.0, load_us = 0.0, archive_bytes = 0.0;
  std::size_t archives = 0;
  if (result->Check(loaded.has_value(), "LoadNewestManifest found nothing")) {
    for (const dmt::serve::ManifestStream& entry : loaded->streams) {
      std::unique_ptr<dmt::Classifier> model;
      std::int64_t t = NowNs();
      {
        SpanScope span(&tracer, Layer::kSerial, archives);
        model = dmt::serial::LoadClassifierFromString(entry.archive);
      }
      load_us += static_cast<double>(NowNs() - t) * 1e-3;
      std::string bytes;
      t = NowNs();
      {
        SpanScope span(&tracer, Layer::kSerial, archives);
        bytes = dmt::serial::SaveClassifierToString(*model);
      }
      save_us += static_cast<double>(NowNs() - t) * 1e-3;
      result->Check(bytes == entry.archive,
                    "archive of stream " + entry.id + " does not round-trip");
      archive_bytes += static_cast<double>(entry.archive.size());
      ++archives;
    }
  }
  const double layers_ms = static_cast<double>(NowNs() - traced_start) * 1e-6;
  const double a = static_cast<double>(std::max<std::size_t>(archives, 1));
  result->Metric("state_dir.recover_ms", recover_ms, "ms");
  result->Metric("state_dir.manifest_mb",
                 static_cast<double>(fs::file_size(work + "/template/" + manifest)) /
                     (1024.0 * 1024.0),
                 "MB");
  result->Metric("serial.load_us_per_stream", load_us / a, "us");
  result->Metric("serial.save_us_per_stream", save_us / a, "us");
  result->Metric("serial.archive_kb_mean", archive_bytes / a / 1024.0, "KB");

  // Per-layer figures of the traced passes.
  CallStats calls;
  std::vector<double> traced_pass_ms, untraced_pass_ms;
  double traced_ms = layers_ms;
  for (const PassOutput& pass : traced) {
    const CallStats& c = pass.calls;
    calls.route_ns.insert(calls.route_ns.end(), c.route_ns.begin(), c.route_ns.end());
    calls.route_allocs += c.route_allocs;
    calls.window_us.insert(calls.window_us.end(), c.window_us.begin(),
                           c.window_us.end());
    calls.window_allocs += c.window_allocs;
    calls.checkpoint_ms.insert(calls.checkpoint_ms.end(), c.checkpoint_ms.begin(),
                               c.checkpoint_ms.end());
    calls.evict_window_us.insert(calls.evict_window_us.end(),
                                 c.evict_window_us.begin(), c.evict_window_us.end());
    calls.warm_start_us.insert(calls.warm_start_us.end(), c.warm_start_us.begin(),
                               c.warm_start_us.end());
    calls.windows += c.windows;
    traced_ms += pass.wall_s * 1e3;
    traced_pass_ms.push_back(pass.wall_s * 1e3);
  }
  for (const PassOutput& pass : untraced) {
    untraced_pass_ms.push_back(pass.wall_s * 1e3);
  }
  ReportServeTally(first, result);
  // Windows run on pool workers, whose allocations the routing thread's
  // counter does not see.
  ReportServeCalls(calls, script.size() * traced.size(),
                   /*windows_inline=*/false, result);
  {
    dmt::serve::Request request;
    std::string error;
    const std::int64_t start = NowNs();
    for (std::size_t i = 0; i < script.size(); ++i) {
      dmt::serve::ParseRequestLine(script.line(i), kFeatures, &request, &error);
    }
    result->Metric("serve.parse_ns_per_request",
                   static_cast<double>(NowNs() - start) / n, "ns");
  }
  const double max_rows =
      *std::max_element(shard_rows.begin(), shard_rows.end());
  const double mean_rows =
      std::accumulate(shard_rows.begin(), shard_rows.end(), 0.0) /
      static_cast<double>(shard_rows.size());
  result->Metric("pool.shard_skew", mean_rows > 0 ? max_rows / mean_rows : 0.0,
                 "ratio");
  // Counts of the first traced replay (replay 1, the same on every run).
  const CallStats& counted = traced.front().calls;
  result->Metric("state_dir.checkpoints",
                 static_cast<double>(counted.checkpoints), "count");
  result->Metric("state_dir.checkpoint_ms_p50", Median(calls.checkpoint_ms), "ms");
  result->Metric("state_dir.evictions", static_cast<double>(counted.evictions),
                 "count");
  result->Metric("state_dir.evict_window_us_p50", Median(calls.evict_window_us),
                 "us");
  result->Metric("state_dir.warm_starts",
                 static_cast<double>(counted.warm_starts), "count");
  result->Metric("state_dir.warm_start_us_p50", Median(calls.warm_start_us), "us");
  // Per-pass overhead: median traced pass minus median untraced pass.
  ReportTrace(tracer, traced_ms,
              Median(traced_pass_ms) - Median(untraced_pass_ms), result);
  tracer.Dump(options.work_dir + "/spans-serve-dmt-durable-seed" +
              std::to_string(options.seed) + ".tsv");
  fs::remove_all(work);
}

}  // namespace perfbench
