// Pieces shared by the two serve workloads: request scripts generated from
// the repository's stream generators, and the outside-in observer that
// times each ServeLine / Flush call and attributes it to a layer by which
// engine counters advanced across it.
#ifndef PERFBENCH_SERVE_COMMON_H_
#define PERFBENCH_SERVE_COMMON_H_

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dmt/common/alloc_count.h"
#include "dmt/serve/engine.h"
#include "harness.h"

namespace perfbench {

// Request lines in one contiguous buffer plus what each line asked for.
struct Script {
  std::string text;
  std::vector<std::size_t> offsets;  // start of each line; one past the end
  std::vector<SentRequest> sent;

  std::size_t size() const { return sent.size(); }
  // Line `i` without its '\n'.
  std::string_view line(std::size_t i) const {
    return std::string_view(text).substr(offsets[i],
                                         offsets[i + 1] - offsets[i] - 1);
  }
};

// Names of the benchmark's streams; index = SentRequest::stream.
std::vector<std::string> StreamNames(std::size_t count);

// Appends "train|score <name> <x...>[,label]\n".
void AppendRequest(Script* script, bool train, std::uint32_t stream,
                   const std::vector<std::string>& names,
                   std::span<const double> x, int label);

// Sum of a shard counter (Shard::evictions, Shard::warm_starts, ...) over
// every shard.
std::uint64_t ShardSum(const dmt::serve::ServeEngine& engine,
                       std::uint64_t* dmt::serve::Shard::*counter);

// Timings of one replay, split by what each call did.
struct CallStats {
  std::vector<double> route_ns;       // ServeLine calls that closed no window
  std::size_t route_allocs = 0;
  std::vector<double> window_us;      // calls that closed a window
  std::size_t window_allocs = 0;
  // Engine time per window: the calls that routed its requests plus the
  // call that closed it (the serve analog of one test-then-train
  // iteration).
  std::vector<double> iter_us;
  double open_window_ns = 0.0;  // routing time of the window being filled
  std::vector<double> checkpoint_ms;  // window calls that wrote a checkpoint
  std::vector<double> evict_window_us;  // window calls that evicted
  std::vector<double> warm_start_us;    // routes that warm-started a stream
  std::uint64_t windows = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t evictions = 0;
  std::uint64_t warm_starts = 0;
};

// Runs one engine call (ServeLine or Flush, as `call`) and records it.
// Window calls are attributed to `window_layer` (serve when windows run
// inline, pool when they are dispatched to shards), unless a checkpoint
// or an eviction landed during the call (state_dir); a route that
// warm-started a parked stream is attributed to state_dir too.
template <typename Call>
void ObserveCall(const dmt::serve::ServeEngine& engine, Tracer* tracer,
                 std::uint64_t unit, Layer window_layer, CallStats* stats,
                 Call&& call) {
  const std::uint64_t windows = engine.windows();
  const std::uint64_t checkpoints = engine.checkpoints();
  const std::uint64_t evictions =
      ShardSum(engine, &dmt::serve::Shard::evictions);
  const std::uint64_t warm_starts =
      ShardSum(engine, &dmt::serve::Shard::warm_starts);
  const std::size_t span =
      tracer != nullptr ? tracer->Begin(Layer::kServe, unit) : 0;
  dmt::alloc_count::Reset();
  const std::int64_t start = NowNs();
  call();
  const std::int64_t end = NowNs();
  const std::size_t allocs = dmt::alloc_count::allocations;
  const std::uint64_t new_windows = engine.windows() - windows;
  const std::uint64_t new_checkpoints = engine.checkpoints() - checkpoints;
  const std::uint64_t new_evictions =
      ShardSum(engine, &dmt::serve::Shard::evictions) - evictions;
  const std::uint64_t new_warm =
      ShardSum(engine, &dmt::serve::Shard::warm_starts) - warm_starts;
  if (tracer != nullptr) {
    if (new_checkpoints > 0 || new_evictions > 0 || new_warm > 0) {
      tracer->Relabel(span, Layer::kStateDir);
    } else if (new_windows > 0) {
      tracer->Relabel(span, window_layer);
    }
    tracer->End(span);
  }
  const double ns = static_cast<double>(end - start);
  stats->windows += new_windows;
  stats->checkpoints += new_checkpoints;
  stats->evictions += new_evictions;
  stats->warm_starts += new_warm;
  if (new_warm > 0) stats->warm_start_us.push_back(ns * 1e-3);
  if (new_windows == 0) {
    stats->route_ns.push_back(ns);
    stats->route_allocs += allocs;
    stats->open_window_ns += ns;
    return;
  }
  stats->iter_us.push_back((stats->open_window_ns + ns) * 1e-3);
  stats->open_window_ns = 0.0;
  stats->window_us.push_back(ns * 1e-3);
  stats->window_allocs += allocs;
  if (new_checkpoints > 0) stats->checkpoint_ms.push_back(ns * 1e-6);
  if (new_evictions > 0) stats->evict_window_us.push_back(ns * 1e-3);
}

// Request-level latencies of a replay: for request i, from `due_ns[i]` to
// the emission of its response line (LineSink timestamps). A request
// meets the limit only when `tally` says it was answered OK; a failed
// request counts as a miss.
void RequestLatencies(const Script& script,
                      const std::vector<std::int64_t>& due_ns,
                      const LineSink& sink, const ServeTally& tally,
                      double limit_us, LatencySamples* out);

// Emits the serve.* per-layer timing metrics of `stats` over `requests`.
// Allocation counts are per thread, so serve.window_allocs_per_request is
// measured only when windows run inline on the calling thread
// (`windows_inline`); otherwise it reports 0, as a bypassed layer does.
void ReportServeCalls(const CallStats& stats, std::size_t requests,
                      bool windows_inline, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_COMMON_H_
