#include "serve_common.h"

#include <cstdio>

namespace perfbench {

std::vector<std::string> StreamNames(std::size_t count) {
  std::vector<std::string> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) names.push_back("u" + std::to_string(i));
  return names;
}

void AppendRequest(Script* script, bool train, std::uint32_t stream,
                   const std::vector<std::string>& names,
                   std::span<const double> x, int label) {
  if (script->offsets.empty()) script->offsets.push_back(0);
  std::string& text = script->text;
  text += train ? "train " : "score ";
  text += names[stream];
  char buffer[32];
  for (std::size_t i = 0; i < x.size(); ++i) {
    text.push_back(i == 0 ? ' ' : ',');
    std::snprintf(buffer, sizeof(buffer), "%.9g", x[i]);
    text += buffer;
  }
  SentRequest sent;
  sent.train = train;
  sent.stream = stream;
  sent.label = label;
  if (train) {
    text.push_back(',');
    text += std::to_string(label);
  }
  text.push_back('\n');
  script->offsets.push_back(text.size());
  script->sent.push_back(sent);
}

std::uint64_t ShardSum(const dmt::serve::ServeEngine& engine,
                       std::uint64_t* dmt::serve::Shard::*counter) {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    sum += *(engine.shard(s).*counter);
  }
  return sum;
}

void RequestLatencies(const Script& script,
                      const std::vector<std::int64_t>& due_ns,
                      const LineSink& sink, const ServeTally& tally,
                      double limit_us, LatencySamples* out) {
  const std::vector<std::int64_t>& emitted = sink.emitted_ns();
  const std::size_t n = std::min(emitted.size(), due_ns.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double us = static_cast<double>(emitted[i] - due_ns[i]) * 1e-3;
    (script.sent[i].train ? out->train_us : out->score_us).push_back(us);
    if (us <= limit_us && i < tally.answered_ok.size() && tally.answered_ok[i]) {
      ++out->ok_within;
    }
  }
  out->sent += script.size();
}

void ReportServeCalls(const CallStats& stats, std::size_t requests,
                      bool windows_inline, Result* result) {
  double route_ns = 0.0;
  for (const double ns : stats.route_ns) route_ns += ns;
  double window_us = 0.0;
  for (const double us : stats.window_us) window_us += us;
  const double n = static_cast<double>(requests);
  const double routes = static_cast<double>(stats.route_ns.size());
  result->Metric("serve.route_ns_per_request",
                 routes > 0 ? route_ns / routes : 0.0, "ns");
  result->Metric("serve.route_allocs_per_request",
                 routes > 0 ? static_cast<double>(stats.route_allocs) / routes
                            : 0.0,
                 "count");
  result->Metric("serve.window_allocs_per_request",
                 windows_inline
                     ? static_cast<double>(stats.window_allocs) / n
                     : 0.0,
                 "count");
  result->Metric("serve.window_ns_per_request", window_us * 1e3 / n, "ns");
  result->Metric("serve.window_us_p50", Quantile(stats.window_us, 0.50), "us");
  result->Metric("serve.window_us_p99", Quantile(stats.window_us, 0.99), "us");
  result->Metric("serve.requests_per_window",
                 stats.windows > 0 ? n / static_cast<double>(stats.windows)
                                   : 0.0,
                 "count");
}

}  // namespace perfbench
