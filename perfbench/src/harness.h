// Shared pieces of the perfbench binary: options, the result record printed
// as the final JSON line, percentiles, the outside-in span tracer, the
// response sink that timestamps each emitted line, and the checker that
// validates serve transcripts.
//
// Everything here observes the library from outside: spans are recorded
// around calls into public functions, never inside src/.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for state dirs (removed at exit) and span dumps (kept).
  std::string work_dir;
};

// One run's outcome; printed as the last stdout line.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Records a failed output check (printed to stderr, flips `correct`).
  void Fail(const std::string& what);
  bool Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
    return ok;
  }
  bool correct() const { return failures_ == 0; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // The result line, with exactly the (name, unit) metrics of `names`, in
  // that order. A metric the run did not record is reported as 0 when
  // `missing_is_zero` (a layer the workload bypasses) and is a check
  // failure otherwise.
  std::string Json(const std::vector<std::pair<std::string, std::string>>& names,
                   bool missing_is_zero);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::size_t failures_ = 0;
};

// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

// Rates and medians are reported as the median over a run's passes of the
// per-pass figure. A run holds many passes, so one disturbed pass moves
// the figure little, and the minutes-long swings in speed of a shared
// host are followed rather than sampled at their best moment.
double PassMedian(const std::vector<std::vector<double>>& passes, double q);

// Every pass's samples in one vector (tails need the samples of all
// passes: a per-pass p99 rests on a handful of samples).
std::vector<double> Pool(const std::vector<std::vector<double>>& passes);

// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

// FNV-1a 64 over `bytes`, as 16 hex digits.
std::string Digest(std::string_view bytes);

// --- Span tracer -----------------------------------------------------------

// Layers are the modules under src/dmt/ the benchmark calls into.
enum class Layer {
  kStreams,
  kEval,
  kCore,
  kServe,
  kBridge,
  kPool,
  kStateDir,
  kSerial,
  kCount
};
const char* LayerName(Layer layer);

// In-memory span recorder. A span is (layer, start, end, parent, unit id);
// the unit id is the batch or request ordinal the call served. Self time
// (duration minus directly nested child spans) and call counts are
// accumulated per layer as spans close; the raw spans, up to a cap, are
// written out by Dump. A null Tracer* disables every hook.
class Tracer {
 public:
  struct Span {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // index into spans_, -1 at the root
    std::uint64_t unit;
  };

  // Opens a span and returns its handle for End.
  std::size_t Begin(Layer layer, std::uint64_t unit);
  void End(std::size_t handle);
  // Re-labels an open span; used when the layer a call served is only
  // known after it returns (a window that checkpointed, a route that
  // warm-started a parked stream).
  void Relabel(std::size_t handle, Layer layer);

  double self_ms(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<int>(layer)]) * 1e-6;
  }
  std::uint64_t calls(Layer layer) const {
    return calls_[static_cast<int>(layer)];
  }
  std::size_t spans() const { return total_spans_; }

  // Writes the recorded spans as TSV (layer, start, end, parent, unit).
  bool Dump(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxKept = 250'000;
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t kept;  // index into spans_ or -1 when over the cap
    std::uint64_t unit;
  };
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::int64_t self_ns_[static_cast<int>(Layer::kCount)] = {};
  std::uint64_t calls_[static_cast<int>(Layer::kCount)] = {};
  std::size_t total_spans_ = 0;
};

// RAII span; a null tracer costs one branch.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, Layer layer, std::uint64_t unit)
      : tracer_(tracer),
        handle_(tracer != nullptr ? tracer->Begin(layer, unit) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(handle_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t handle_;
};

// Emits the per-layer self time and call count of every layer, the traced
// wall time, the unattributed remainder (wall minus every layer's self
// time) and the tracing overhead (traced minus untraced wall time of the
// same loop, per pass).
void ReportTrace(const Tracer& tracer, double traced_wall_ms,
                 double overhead_ms, Result* result);

// --- Serve responses ---------------------------------------------------------

// Unbuffered std::streambuf that keeps every byte written by the engine and
// the steady-clock time at which each '\n' (each response line) was
// emitted. Capacity is reserved up front so recording never allocates on
// the thread whose allocations are being counted.
class LineSink : public std::streambuf {
 public:
  // With `stamp` false the sink only keeps the bytes (a bare replay).
  void set_stamp(bool stamp) { stamp_ = stamp; }
  void Reserve(std::size_t bytes, std::size_t lines);
  void Clear();
  const std::string& text() const { return text_; }
  const std::vector<std::int64_t>& emitted_ns() const { return emitted_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  bool stamp_ = true;
  std::string text_;
  std::vector<std::int64_t> emitted_;
};

// What the benchmark sent: one entry per request line, in order.
struct SentRequest {
  bool train = true;
  std::uint32_t stream = 0;
  int label = 0;  // true label (hidden from score requests)
};

// Failure accounting and output checks over one transcript. Responses are
// matched to requests by position; every ERR line is tallied by reason.
struct ServeTally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t err_parse = 0;
  std::uint64_t err_retry_after = 0;
  std::uint64_t err_warm_start = 0;
  std::uint64_t err_bad_row = 0;
  std::uint64_t err_other = 0;
  // Per request: answered OK (the base of slo_ok_ratio).
  std::vector<bool> answered_ok;
  // Predictions of score responses, paired with the hidden labels.
  std::vector<int> predicted;
  std::vector<int> actual;

  std::uint64_t errors() const {
    return err_parse + err_retry_after + err_warm_start + err_bad_row +
           err_other;
  }
};

// Checks `transcript` against `sent`: one response per request, in order,
// echoing verb and stream id; train `n=` equal to the benchmark's own
// per-stream train count (`train_counts`, advanced by every train
// request); score `pred=` the argmax of `p=`, with `p` summing to 1.
// Check failures are recorded on `result` (the first few are printed).
ServeTally CheckTranscript(std::string_view transcript,
                           const std::vector<SentRequest>& sent,
                           const std::vector<std::string>& stream_names,
                           int num_classes,
                           std::vector<std::uint64_t>* train_counts,
                           Result* result);

// Support-weighted F1 of the score responses (eval::ConfusionMatrix).
double ServedF1(const ServeTally& tally, int num_classes);

// Emits the failure-accounting per-layer metrics.
void ReportServeTally(const ServeTally& tally, Result* result);

// Request and window latencies of one serve pass or replay.
struct LatencySamples {
  std::vector<double> train_us;
  std::vector<double> score_us;
  std::vector<double> iter_us;  // engine time per window
  // Requests answered OK within the workload's latency limit, of `sent`.
  std::size_t ok_within = 0;
  std::size_t sent = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
