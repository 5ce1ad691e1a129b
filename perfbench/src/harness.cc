#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "dmt/common/parse.h"
#include "dmt/eval/metrics.h"

namespace perfbench {

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Result::Fail(const std::string& what) {
  if (failures_ < 20) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  ++failures_;
}

std::string Result::Json(
    const std::vector<std::pair<std::string, std::string>>& names,
    bool missing_is_zero) {
  std::string body;
  char buffer[64];
  for (const auto& [name, unit] : names) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&name](const Entry& e) { return e.name == name; });
    double value = 0.0;
    if (it == metrics_.end()) {
      Check(missing_is_zero, "metric " + name + " was not measured");
    } else {
      Check(it->unit == unit, "metric " + name + " has unit " + it->unit);
      value = it->value;
    }
    if (!body.empty()) body += ", ";
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    body += "\"" + name + "\": {\"value\": " + buffer + ", \"unit\": \"" +
            unit + "\"}";
  }
  for (const Entry& entry : metrics_) {
    const bool listed =
        std::any_of(names.begin(), names.end(),
                    [&entry](const auto& n) { return n.first == entry.name; });
    Check(listed, "metric " + entry.name + " is not in the metric list");
  }
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {" + body + "}}";
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double PassMedian(const std::vector<std::vector<double>>& passes, double q) {
  std::vector<double> per_pass;
  per_pass.reserve(passes.size());
  for (const std::vector<double>& pass : passes) {
    per_pass.push_back(Quantile(pass, q));
  }
  return Median(per_pass);
}

std::vector<double> Pool(const std::vector<std::vector<double>>& passes) {
  std::vector<double> all;
  for (const std::vector<double>& pass : passes) {
    all.insert(all.end(), pass.begin(), pass.end());
  }
  return all;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

// --- Tracer ------------------------------------------------------------------

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kStreams: return "streams";
    case Layer::kEval: return "eval";
    case Layer::kCore: return "core";
    case Layer::kServe: return "serve";
    case Layer::kBridge: return "bridge";
    case Layer::kPool: return "pool";
    case Layer::kStateDir: return "state_dir";
    case Layer::kSerial: return "serial";
    case Layer::kCount: break;
  }
  return "?";
}

std::size_t Tracer::Begin(Layer layer, std::uint64_t unit) {
  std::int64_t kept = -1;
  if (spans_.size() < kMaxKept) {
    kept = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().kept;
    spans_.push_back({layer, 0, 0, parent, unit});
  }
  stack_.push_back({layer, 0, 0, kept, unit});
  // Read the clock last so the bookkeeping above is not inside the span.
  stack_.back().start_ns = NowNs();
  if (kept >= 0) spans_[static_cast<std::size_t>(kept)].start_ns = stack_.back().start_ns;
  return stack_.size() - 1;
}

void Tracer::Relabel(std::size_t handle, Layer layer) {
  Open& open = stack_[handle];
  open.layer = layer;
  if (open.kept >= 0) spans_[static_cast<std::size_t>(open.kept)].layer = layer;
}

void Tracer::End(std::size_t handle) {
  const std::int64_t end = NowNs();
  const Open open = stack_[handle];
  stack_.resize(handle);
  const std::int64_t duration = end - open.start_ns;
  self_ns_[static_cast<int>(open.layer)] += duration - open.child_ns;
  ++calls_[static_cast<int>(open.layer)];
  ++total_spans_;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.kept >= 0) spans_[static_cast<std::size_t>(open.kept)].end_ns = end;
}

bool Tracer::Dump(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "layer\tstart_ns\tend_ns\tparent\tunit\n");
  for (const Span& span : spans_) {
    std::fprintf(file, "%s\t%lld\t%lld\t%lld\t%llu\n", LayerName(span.layer),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.unit));
  }
  return std::fclose(file) == 0;
}

void ReportTrace(const Tracer& tracer, double traced_wall_ms,
                 double overhead_ms, Result* result) {
  double self_total = 0.0;
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    const Layer layer = static_cast<Layer>(i);
    const std::string name = LayerName(layer);
    result->Metric(name + ".calls", static_cast<double>(tracer.calls(layer)),
                   "count");
    result->Metric(name + ".self_ms", tracer.self_ms(layer), "ms");
    self_total += tracer.self_ms(layer);
  }
  // Self times telescope to the root spans' total; the remainder is benchmark
  // code between root spans.
  const double unattributed = traced_wall_ms - self_total;
  result->Check(unattributed >= -1e-6 * traced_wall_ms - 1e-3,
                "span self times exceed the traced wall time");
  result->Metric("trace.wall_ms", traced_wall_ms, "ms");
  result->Metric("trace.unattributed_ms", unattributed, "ms");
  result->Metric("trace.overhead_ms", overhead_ms, "ms");
  result->Metric("trace.spans", static_cast<double>(tracer.spans()), "count");
}

// --- LineSink ---------------------------------------------------------------

void LineSink::Reserve(std::size_t bytes, std::size_t lines) {
  text_.reserve(bytes);
  emitted_.reserve(lines);
}

void LineSink::Clear() {
  text_.clear();
  emitted_.clear();
}

LineSink::int_type LineSink::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  const char c = traits_type::to_char_type(ch);
  text_.push_back(c);
  if (c == '\n' && stamp_) emitted_.push_back(NowNs());
  return ch;
}

std::streamsize LineSink::xsputn(const char* s, std::streamsize n) {
  text_.append(s, static_cast<std::size_t>(n));
  if (!stamp_) return n;
  std::int64_t now = -1;
  for (std::streamsize i = 0; i < n; ++i) {
    if (s[i] == '\n') {
      if (now < 0) now = NowNs();
      emitted_.push_back(now);
    }
  }
  return n;
}

// --- Transcript checks --------------------------------------------------------

namespace {

std::string_view NextToken(std::string_view* rest) {
  const std::size_t space = rest->find(' ');
  const std::string_view token = rest->substr(0, space);
  *rest = space == std::string_view::npos ? std::string_view()
                                          : rest->substr(space + 1);
  return token;
}

}  // namespace

ServeTally CheckTranscript(std::string_view transcript,
                           const std::vector<SentRequest>& sent,
                           const std::vector<std::string>& stream_names,
                           int num_classes,
                           std::vector<std::uint64_t>* train_counts,
                           Result* result) {
  ServeTally tally;
  tally.sent = sent.size();
  tally.answered_ok.assign(sent.size(), false);
  tally.predicted.reserve(sent.size());
  tally.actual.reserve(sent.size());
  std::size_t pos = 0;
  std::size_t index = 0;
  std::vector<double> proba(static_cast<std::size_t>(num_classes));
  while (pos < transcript.size()) {
    const std::size_t nl = transcript.find('\n', pos);
    if (nl == std::string_view::npos) {
      result->Fail("transcript ends without a newline");
      break;
    }
    std::string_view line = transcript.substr(pos, nl - pos);
    pos = nl + 1;
    if (index >= sent.size()) {
      result->Fail("more responses than requests");
      break;
    }
    const SentRequest& request = sent[index];
    const std::string& id = stream_names[request.stream];
    const std::string where = "response " + std::to_string(index);
    ++index;
    const std::uint64_t expect_n =
        request.train ? ++(*train_counts)[request.stream] : 0;
    std::string_view rest = line;
    const std::string_view status = NextToken(&rest);
    if (status == "ERR") {
      const std::string_view reason = NextToken(&rest);
      if (reason == "parse") {
        ++tally.err_parse;
      } else if (reason.substr(0, 11) == "retry-after") {
        ++tally.err_retry_after;
      } else if (reason == "warm_start") {
        ++tally.err_warm_start;
      } else if (reason == "bad_row") {
        ++tally.err_bad_row;
      } else {
        ++tally.err_other;
      }
      continue;
    }
    if (!result->Check(status == "OK", where + " is neither OK nor ERR")) {
      ++tally.err_other;
      continue;
    }
    ++tally.ok;
    tally.answered_ok[index - 1] = true;
    const std::string_view verb = NextToken(&rest);
    const std::string_view stream = NextToken(&rest);
    if (!result->Check(verb == (request.train ? "train" : "score") &&
                           stream == id,
                       where + " does not echo its verb and stream: " +
                           std::string(line))) {
      continue;
    }
    if (request.train) {
      const std::string_view n = NextToken(&rest);
      const std::optional<std::uint64_t> value =
          n.substr(0, 2) == "n=" ? dmt::ParseU64(n.substr(2)) : std::nullopt;
      result->Check(value.has_value() && *value == expect_n,
                    where + " reports " + std::string(n) + ", expected n=" +
                        std::to_string(expect_n));
      continue;
    }
    const std::string_view pred_token = NextToken(&rest);
    const std::string_view p_token = NextToken(&rest);
    const std::optional<std::uint64_t> parsed_pred =
        pred_token.substr(0, 5) == "pred=" ? dmt::ParseU64(pred_token.substr(5))
                                           : std::nullopt;
    const std::size_t pred = parsed_pred ? *parsed_pred : num_classes;
    bool ok = pred < static_cast<std::size_t>(num_classes) &&
              p_token.substr(0, 2) == "p=";
    std::string_view values = ok ? p_token.substr(2) : std::string_view();
    double sum = 0.0;
    for (int c = 0; ok && c < num_classes; ++c) {
      const std::size_t comma = values.find(',');
      const std::optional<double> p =
          dmt::ParseDouble(values.substr(0, comma), /*require_finite=*/true);
      ok = p.has_value() && (comma == std::string_view::npos) == (c + 1 == num_classes);
      if (!ok) break;
      proba[static_cast<std::size_t>(c)] = *p;
      sum += *p;
      values = comma == std::string_view::npos ? std::string_view()
                                               : values.substr(comma + 1);
    }
    if (!result->Check(ok, where + " is a malformed score: " + std::string(line))) {
      continue;
    }
    // Probabilities are printed with 10 significant digits.
    result->Check(std::fabs(sum - 1.0) < 1e-8,
                  where + " probabilities do not sum to 1");
    const std::size_t argmax = static_cast<std::size_t>(
        std::max_element(proba.begin(), proba.end()) - proba.begin());
    result->Check(pred == argmax,
                  where + " pred= is not the argmax of p=");
    tally.predicted.push_back(static_cast<int>(pred));
    tally.actual.push_back(request.label);
  }
  result->Check(index == sent.size(),
                "transcript has " + std::to_string(index) + " responses for " +
                    std::to_string(sent.size()) + " requests");
  return tally;
}

double ServedF1(const ServeTally& tally, int num_classes) {
  dmt::eval::ConfusionMatrix confusion(static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < tally.predicted.size(); ++i) {
    confusion.Add(tally.predicted[i], tally.actual[i]);
  }
  return confusion.WeightedF1();
}

void ReportServeTally(const ServeTally& tally, Result* result) {
  result->Metric("serve.requests_sent", static_cast<double>(tally.sent), "count");
  result->Metric("serve.ok", static_cast<double>(tally.ok), "count");
  result->Metric("serve.err_parse", static_cast<double>(tally.err_parse), "count");
  result->Metric("serve.err_retry_after",
                 static_cast<double>(tally.err_retry_after), "count");
  result->Metric("serve.err_warm_start",
                 static_cast<double>(tally.err_warm_start), "count");
  result->Metric("serve.err_bad_row", static_cast<double>(tally.err_bad_row),
                 "count");
  result->Metric("serve.err_other", static_cast<double>(tally.err_other), "count");
  result->Metric("serve.error_ratio",
                 tally.sent > 0 ? static_cast<double>(tally.errors()) /
                                      static_cast<double>(tally.sent)
                                : 0.0,
                 "ratio");
}

}  // namespace perfbench
