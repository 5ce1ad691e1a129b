#include "dmt/serve/engine.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <future>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "dmt/serial/model_io.h"
#include "dmt/serve/state_dir.h"

namespace dmt::serve {

namespace {

// Stable stream-id hash (FNV-1a, SplitMix64-finalized): the stream
// index key and, modulo num_shards, the stream's shard home. Must not
// depend on anything but the id bytes: a stream's model identity survives
// process restarts and shard-count changes only because its *seed* comes
// from DeriveSeed(engine seed, id), but its shard home may legitimately
// move when num_shards changes.
std::uint64_t StreamHash(std::string_view id) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : id) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return SplitMix64(h);
}

// Slot count of an empty stream index (a power of two).
constexpr std::size_t kInitialIndexSlots = 64;

void AppendDecimal(std::string* out, std::uint64_t value) {
  char buffer[20];
  out->append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

// The bytes of printf("%.10g", value): to_chars with a precision is
// specified as printf with the matching conversion.
void AppendG(std::string* out, double value) {
  char buffer[32];
  out->append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 10)
                          .ptr);
}

// Textual mt19937_64 state (the standard's portable stream format), so a
// stream's fault-injection trace continues bit-identically across a
// checkpoint/recover cycle.
std::string RngToText(const Rng& rng) {
  std::ostringstream out;
  out << rng.engine();
  return out.str();
}

bool RngFromText(const std::string& text, Rng* rng) {
  std::istringstream in(text);
  in >> rng->engine();
  return static_cast<bool>(in);
}

// The `stats` response fields after "streams" and "resident_streams", in
// response order (which differs from the manifest wire order of Tally).
constexpr std::pair<const char*, Tally> kStatsFields[] = {
    {"streams_created", kStreamsCreated},
    {"requests", kRequests},
    {"train_rows", kTrainRows},
    {"score_rows", kScoreRows},
    {"bad_rows", kBadRows},
    {"values_imputed", kValuesImputed},
    {"rejected", kRejected},
    {"parse_errors", kParseErrors},
    {"snapshots", kSnapshots},
    {"restores", kRestores},
    {"drops", kDrops},
    {"windows", kWindows},
    {"evictions", kEvictions},
    {"warm_starts", kWarmStarts},
    {"checkpoints", kCheckpoints},
    {"injected_rows", kInjectedRows},
    {"state_errors", kStateErrors},
};
static_assert(std::size(kStatsFields) == kNumTallies,
              "every tally needs exactly one stats field");

// The one shape check for a model decoded from an archive (restore, warm
// start, recovery): it must score the engine's rows into the engine's
// classes. A model that fits is attached to `shard`'s telemetry and ""
// is returned; otherwise the mismatch, e.g. "archive has 40 features,
// engine 2", and the model is left untouched.
std::string AttachIfFits(Classifier* model, const ServeConfig& config,
                         Shard* shard) {
  if (model->num_classes() != config.num_classes) {
    return "archive has " + std::to_string(model->num_classes()) +
           " classes, engine " + std::to_string(config.num_classes);
  }
  if (model->num_features() != config.num_features) {
    return "archive has " + std::to_string(model->num_features()) +
           " features, engine " + std::to_string(config.num_features);
  }
  model->AttachTelemetry(&shard->telemetry);
  return "";
}

}  // namespace

ServeEngine::ServeEngine(ServeConfig config) : config_(std::move(config)) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  if (config_.batch_window == 0) config_.batch_window = 1;
  if (config_.queue_capacity == 0) {
    config_.queue_capacity = config_.batch_window;
  }
  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->scratch_batch =
        Batch(static_cast<std::size_t>(config_.num_features));
    shards_.push_back(std::move(shard));
  }
  work_.resize(config_.num_shards);
  index_.resize(kInitialIndexSlots);
  if (config_.num_shards > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_shards);
  }
  if (config_.state_dir.empty()) {
    if (config_.max_streams > 0 || config_.idle_windows > 0) {
      throw StateError(
          "stream eviction (max_streams / idle_windows) requires a state "
          "dir to park models in");
    }
    if (config_.checkpoint_every > 0) {
      throw StateError("checkpoint_every requires a state dir");
    }
  } else {
    EnsureStateDir(config_.state_dir);
    RecoverFromStateDir();
  }
}

ServeEngine::~ServeEngine() = default;

ServeEngine::StreamState* ServeEngine::FindStream(std::string_view id,
                                                  std::uint64_t hash) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
    const IndexSlot& slot = index_[at];
    if (slot.stream == nullptr) return nullptr;
    if (slot.hash == hash && slot.stream->id == id) return slot.stream;
  }
}

ServeEngine::StreamState* ServeEngine::AddStream(std::string_view id,
                                                 std::uint64_t hash) {
  if (2 * (num_streams_ + 1) > index_.size()) {
    // Re-slot by the stored hashes; no id is rehashed and no StreamState
    // moves, so pointers held by the current window stay valid.
    std::vector<IndexSlot> grown(2 * index_.size());
    const std::size_t mask = grown.size() - 1;
    for (const IndexSlot& slot : index_) {
      if (slot.stream == nullptr) continue;
      std::size_t at = slot.hash & mask;
      while (grown[at].stream != nullptr) at = (at + 1) & mask;
      grown[at] = slot;
    }
    index_.swap(grown);
  }
  StreamState* stream = nullptr;
  if (free_.empty()) {
    stream = &slab_.emplace_back();
  } else {
    stream = free_.back();
    free_.pop_back();
  }
  stream->id.assign(id);
  stream->hash = hash;
  stream->shard = static_cast<std::size_t>(hash % shards_.size());
  const std::size_t mask = index_.size() - 1;
  std::size_t at = hash & mask;
  while (index_[at].stream != nullptr) at = (at + 1) & mask;
  index_[at] = {hash, stream};
  ++num_streams_;
  return stream;
}

void ServeEngine::RemoveStream(StreamState* stream) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = stream->hash & mask;
  while (index_[hole].stream != stream) hole = (hole + 1) & mask;
  // Backward-shift deletion: each later entry of the probe run moves back
  // into the hole unless its home slot lies after the hole, so every
  // entry stays reachable from its home and no tombstones are needed.
  for (std::size_t at = (hole + 1) & mask; index_[at].stream != nullptr;
       at = (at + 1) & mask) {
    const std::size_t home = index_[at].hash & mask;
    if (((at - home) & mask) >= ((at - hole) & mask)) {
      index_[hole] = index_[at];
      hole = at;
    }
  }
  index_[hole] = IndexSlot();
  *stream = StreamState();
  free_.push_back(stream);
  --num_streams_;
}

ServeEngine::StreamState* ServeEngine::CreateStream(std::string_view id,
                                                    std::uint64_t hash) {
  // Seeded from the stream identity alone: the same id always gets the
  // same model no matter which shard hosts it or when it first appeared.
  const std::string owned(id);
  std::unique_ptr<Classifier> model =
      config_.factory(owned, DeriveSeed(config_.seed, owned));
  StreamState* stream = AddStream(id, hash);
  stream->model = std::move(model);
  Shard* shard = shards_[stream->shard].get();
  stream->model->AttachTelemetry(&shard->telemetry);
  ++shard->num_streams;
  *shard->resident_streams = static_cast<double>(shard->num_streams);
  ++resident_;
  ++tallies_[kStreamsCreated];
  return stream;
}

bool ServeEngine::WarmStart(StreamState* stream, std::string* error) {
  try {
    const std::string archive =
        ReadEvictionArchive(config_.state_dir, stream->id);
    std::unique_ptr<Classifier> model =
        serial::LoadClassifierFromString(archive);
    Shard* shard = shards_[stream->shard].get();
    const std::string mismatch = AttachIfFits(model.get(), config_, shard);
    if (!mismatch.empty()) throw StateError("parked " + mismatch);
    stream->model = std::move(model);
    // The parked file is now stale (the resident model trains on); the
    // next eviction or checkpoint re-serializes from memory.
    RemoveEvictionArchive(config_.state_dir, stream->id);
    ++shard->num_streams;
    *shard->resident_streams = static_cast<double>(shard->num_streams);
    *shard->warm_starts += 1;
    ++resident_;
    ++tallies_[kWarmStarts];
    return true;
  } catch (const std::exception& e) {
    ++tallies_[kStateErrors];
    *error = e.what();
    return false;
  }
}

void ServeEngine::InjectFaults(Request* request, StreamState* stream) {
  const robust::FaultSpec& spec = config_.inject;
  if (stream->inject_rng == nullptr) {
    // Seeded from the stream identity alone, like the model itself, and
    // advanced once per train/score request of this stream: the fault
    // trace is a pure function of the stream's request subsequence.
    stream->inject_rng = std::make_unique<Rng>(
        DeriveSeed(config_.seed, stream->id, "inject"));
  }
  Rng& rng = *stream->inject_rng;
  const int features = config_.num_features;
  bool injected = false;
  // Draw order mirrors robust::FaultyStream: truncate, nan, inf, missing,
  // flip. Serve rows have no "stream end", so truncate becomes a truncated
  // *row*: a random suffix of the features is lost (NaN).
  if (spec.truncate_rate > 0.0 && features > 0 &&
      rng.Bernoulli(spec.truncate_rate)) {
    const int start = rng.UniformInt(0, features - 1);
    for (int i = start; i < features; ++i) {
      request->values[static_cast<std::size_t>(i)] =
          std::numeric_limits<double>::quiet_NaN();
    }
    injected = true;
  }
  if (spec.nan_rate > 0.0 && features > 0 && rng.Bernoulli(spec.nan_rate)) {
    request->values[static_cast<std::size_t>(rng.UniformInt(0, features - 1))] =
        std::numeric_limits<double>::quiet_NaN();
    injected = true;
  }
  if (spec.inf_rate > 0.0 && features > 0 && rng.Bernoulli(spec.inf_rate)) {
    const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    request->values[static_cast<std::size_t>(rng.UniformInt(0, features - 1))] =
        sign * std::numeric_limits<double>::infinity();
    injected = true;
  }
  if (spec.missing_rate > 0.0) {
    for (int i = 0; i < features; ++i) {
      if (rng.Bernoulli(spec.missing_rate)) {
        request->values[static_cast<std::size_t>(i)] =
            std::numeric_limits<double>::quiet_NaN();
        injected = true;
      }
    }
  }
  if (request->verb == Verb::kTrain && spec.flip_rate > 0.0 &&
      config_.num_classes > 1 && rng.Bernoulli(spec.flip_rate)) {
    double& label = request->values[static_cast<std::size_t>(features)];
    if (std::isfinite(label) && label == std::floor(label) && label >= 0.0 &&
        label < static_cast<double>(config_.num_classes)) {
      // Uniform over the other classes: draw r in [0, c-2], shift past y.
      int r = rng.UniformInt(0, config_.num_classes - 2);
      if (r >= static_cast<int>(label)) ++r;
      label = static_cast<double>(r);
      injected = true;
    }
  }
  if (injected) ++tallies_[kInjectedRows];
}

void ServeEngine::RouteRequest(Request* request, std::size_t slot) {
  // The slot is empty (ServeLine cleared it); responses append into it.
  std::string& response = responses_[slot];
  if (request->verb == Verb::kStats) {
    AppendStatsLine(&response);
    return;
  }
  const std::uint64_t hash = StreamHash(request->stream_id);
  StreamState* stream = FindStream(request->stream_id, hash);
  if (stream == nullptr) {
    if (request->verb == Verb::kSnapshot) {
      response.append("ERR unknown_stream ").append(request->stream_id);
      return;
    }
    stream = CreateStream(request->stream_id, hash);
  } else if (stream->model == nullptr) {
    std::string warm_error;
    if (!WarmStart(stream, &warm_error)) {
      response.append("ERR warm_start ")
          .append(request->stream_id)
          .append(" ")
          .append(warm_error);
      return;
    }
  }
  // Touch bookkeeping for LRU/TTL eviction: the request ordinal is unique,
  // so the LRU order is total and eviction picks the same victims at any
  // shard count.
  stream->last_touch = tallies_[kRequests];
  stream->last_window = tallies_[kWindows];
  Shard* shard = shards_[stream->shard].get();

  if (config_.inject.any() &&
      (request->verb == Verb::kTrain || request->verb == Verb::kScore)) {
    InjectFaults(request, stream);
  }

  // Bad-input policy, applied at routing so every request's response is
  // fully determined by the request sequence. Train rows carry the label
  // as the last value; a bad label can never be imputed.
  if (request->verb == Verb::kTrain || request->verb == Verb::kScore) {
    const std::size_t features = static_cast<std::size_t>(
        config_.num_features);
    double bad_value = 0.0;
    bool row_bad = false;
    for (std::size_t i = 0; i < features; ++i) {
      if (!std::isfinite(request->values[i])) {
        bad_value = request->values[i];
        row_bad = true;
        if (config_.bad_input_policy == BadInputPolicy::kImputeMidpoint) {
          request->values[i] = 0.0;
          ++tallies_[kValuesImputed];
        }
      }
    }
    bool label_bad = false;
    if (request->verb == Verb::kTrain) {
      const double label = request->values.back();
      label_bad = !std::isfinite(label) || label != std::floor(label) ||
                  label < 0.0 ||
                  label >= static_cast<double>(config_.num_classes);
    }
    if (row_bad || label_bad) {
      ++tallies_[kBadRows];
      *shard->bad_rows += 1;
      // The gauge holds the offending value verbatim -- possibly NaN/Inf;
      // the JSON exporter must render it as null, not as bare `nan`.
      *shard->last_bad_value = label_bad ? request->values.back() : bad_value;
    }
    const bool drop_row =
        label_bad || (row_bad && config_.bad_input_policy !=
                                     BadInputPolicy::kImputeMidpoint);
    if (drop_row) {
      const char* what = request->verb == Verb::kTrain ? "train" : "score";
      if (config_.bad_input_policy == BadInputPolicy::kThrow) {
        response.append("ERR bad_row ").append(what).append(" ").append(
            request->stream_id);
      } else {
        response.append("OK ").append(what).append(" ").append(
            request->stream_id).append(" dropped");
      }
      return;
    }
  }

  // Explicit back-pressure: a full shard queue rejects instead of growing
  // without bound; the client owns the retry (next window is one barrier
  // away, hence retry-after=1).
  std::vector<Routed>& queue = work_[stream->shard].queue;
  if (queue.size() >= config_.queue_capacity) {
    ++tallies_[kRejected];
    *shard->rejected += 1;
    response.append("ERR retry-after=1 ")
        .append(request->stream_id)
        .append(" shard=");
    AppendDecimal(&response, stream->shard);
    response.append(" queue_full");
    return;
  }

  Routed routed;
  routed.verb = request->verb;
  routed.stream = stream;
  routed.slot = slot;
  routed.values_at = window_values_.size();
  window_values_.insert(window_values_.end(), request->values.begin(),
                        request->values.end());
  routed.path = std::move(request->path);
  switch (request->verb) {
    case Verb::kTrain:
      routed.ordinal = ++stream->rows_trained;
      ++tallies_[kTrainRows];
      break;
    case Verb::kScore:
      ++tallies_[kScoreRows];
      break;
    case Verb::kSnapshot:
      ++tallies_[kSnapshots];
      break;
    case Verb::kRestore:
      ++tallies_[kRestores];
      break;
    default:
      break;
  }
  queue.push_back(std::move(routed));
}

void ServeEngine::ServeLine(std::string_view line, std::ostream& out) {
  ++tallies_[kRequests];
  const bool parsed =
      ParseRequestLine(line, config_.num_features, &request_, &parse_error_);
  if (parsed && request_.verb == Verb::kDrop) {
    // A drop is a window boundary: everything routed so far (possibly
    // including requests for this stream) executes first, then the stream
    // is destroyed on the routing thread while no shard task is running.
    // Its response is emitted directly -- still in request order, right
    // after the flushed window's responses.
    Flush(out);
    StreamState* stream =
        FindStream(request_.stream_id, StreamHash(request_.stream_id));
    if (stream == nullptr) {
      out << "ERR unknown_stream " << request_.stream_id << '\n';
    } else {
      if (stream->model != nullptr) {
        Shard* shard = shards_[stream->shard].get();
        --shard->num_streams;
        *shard->resident_streams = static_cast<double>(shard->num_streams);
        --resident_;
      } else if (!config_.state_dir.empty()) {
        // A dropped stream must not be resurrectable from its parked file.
        RemoveEvictionArchive(config_.state_dir, request_.stream_id);
      }
      RemoveStream(stream);
      ++tallies_[kDrops];
      out << "OK drop " << request_.stream_id << '\n';
    }
    return;
  }
  const std::size_t slot = num_responses_++;
  if (slot == responses_.size()) responses_.emplace_back();
  responses_[slot].clear();
  if (!parsed) {
    ++tallies_[kParseErrors];
    responses_[slot].append("ERR parse ").append(parse_error_);
  } else {
    RouteRequest(&request_, slot);
  }
  if (num_responses_ >= config_.batch_window) Flush(out);
}

void ServeEngine::Flush(std::ostream& out) {
  // An empty flush (bridge idle tick, drop at a window start, double
  // Finish) is a no-op: it must not advance the window clock, evict, or
  // checkpoint, or interactive serving would diverge from batch replay.
  if (num_responses_ == 0) return;
  if (pool_ != nullptr) {
    std::vector<std::future<void>> futures;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (work_[s].queue.empty()) continue;
      Shard* shard = shards_[s].get();
      ShardWork* work = &work_[s];
      futures.push_back(
          pool_->Submit([this, shard, work]() { ProcessShard(shard, work); }));
    }
    for (std::future<void>& future : futures) {
      GetHelping(pool_.get(), &future);
    }
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!work_[s].queue.empty()) ProcessShard(shards_[s].get(), &work_[s]);
    }
  }
  for (ShardWork& work : work_) work.queue.clear();
  window_values_.clear();
  window_text_.clear();
  for (std::size_t i = 0; i < num_responses_; ++i) {
    window_text_.append(responses_[i]).push_back('\n');
  }
  out.write(window_text_.data(),
            static_cast<std::streamsize>(window_text_.size()));
  out.flush();
  num_responses_ = 0;
  ++tallies_[kWindows];
  EvictAtBoundary();
  if (!config_.state_dir.empty() && config_.checkpoint_every > 0 &&
      tallies_[kWindows] % config_.checkpoint_every == 0) {
    WriteCheckpoint();
  }
  if (config_.exporter != nullptr && config_.export_every > 0 &&
      tallies_[kWindows] % config_.export_every == 0) {
    ExportTelemetry();
  }
}

void ServeEngine::EvictAtBoundary() {
  if (config_.max_streams == 0 && config_.idle_windows == 0) return;
  // Runs on the routing thread between windows, so eviction timing is a
  // pure function of the request sequence -- never of shard scheduling.
  std::vector<StreamState*> victims;
  if (config_.idle_windows > 0) {
    for (const IndexSlot& slot : index_) {
      if (slot.stream != nullptr && slot.stream->model != nullptr &&
          tallies_[kWindows] - slot.stream->last_window >
              config_.idle_windows) {
        victims.push_back(slot.stream);
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const StreamState* a, const StreamState* b) {
                return a->last_touch < b->last_touch;
              });
    for (StreamState* victim : victims) EvictStream(victim);
    victims.clear();
  }
  if (config_.max_streams > 0 && resident_ > config_.max_streams) {
    for (const IndexSlot& slot : index_) {
      if (slot.stream != nullptr && slot.stream->model != nullptr) {
        victims.push_back(slot.stream);
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const StreamState* a, const StreamState* b) {
                return a->last_touch < b->last_touch;
              });
    for (StreamState* victim : victims) {
      if (resident_ <= config_.max_streams) break;
      EvictStream(victim);
    }
  }
}

bool ServeEngine::EvictStream(StreamState* stream) {
  try {
    WriteEvictionArchive(config_.state_dir, stream->id,
                         serial::SaveClassifierToString(*stream->model));
  } catch (const std::exception& e) {
    // Never silently lose state: a stream that cannot be parked stays
    // resident and serving continues.
    ++tallies_[kStateErrors];
    std::fprintf(stderr, "dmt_serve: cannot evict stream '%s': %s\n",
                 stream->id.c_str(), e.what());
    return false;
  }
  stream->model.reset();
  Shard* shard = shards_[stream->shard].get();
  --shard->num_streams;
  *shard->resident_streams = static_cast<double>(shard->num_streams);
  *shard->evictions += 1;
  --resident_;
  ++tallies_[kEvictions];
  return true;
}

void ServeEngine::WriteCheckpoint() {
  Manifest manifest;
  manifest.seq = next_checkpoint_seq_;
  manifest.model_kind = config_.model_kind;
  manifest.num_features = config_.num_features;
  manifest.num_classes = config_.num_classes;
  manifest.seed = config_.seed;
  manifest.batch_window = config_.batch_window;
  manifest.inject_rates = {config_.inject.nan_rate, config_.inject.inf_rate,
                           config_.inject.missing_rate,
                           config_.inject.flip_rate,
                           config_.inject.truncate_rate};
  manifest.tallies = tallies_;
  // The checkpoint counts itself: a run recovered from it must report the
  // same `checkpoints` tally as the run that wrote it.
  ++manifest.tallies[kCheckpoints];

  std::vector<const StreamState*> order;
  order.reserve(num_streams_);
  for (const IndexSlot& slot : index_) {
    if (slot.stream != nullptr) order.push_back(slot.stream);
  }
  std::sort(order.begin(), order.end(),
            [](const StreamState* a, const StreamState* b) {
              return a->id < b->id;
            });
  try {
    manifest.streams.reserve(order.size());
    for (const StreamState* state : order) {
      ManifestStream entry;
      entry.id = state->id;
      entry.resident = state->model != nullptr;
      entry.rows_trained = state->rows_trained;
      entry.last_touch = state->last_touch;
      entry.last_window = state->last_window;
      if (state->inject_rng != nullptr) {
        entry.inject_rng = RngToText(*state->inject_rng);
      }
      entry.archive =
          entry.resident
              ? serial::SaveClassifierToString(*state->model)
              : ReadEvictionArchive(config_.state_dir, state->id);
      manifest.streams.push_back(std::move(entry));
    }
    WriteManifest(config_.state_dir, manifest);
  } catch (const std::exception& e) {
    // A failed checkpoint never interrupts serving; the previous manifest
    // stays the recovery point.
    ++tallies_[kStateErrors];
    std::fprintf(stderr, "dmt_serve: checkpoint %llu failed: %s\n",
                 static_cast<unsigned long long>(manifest.seq), e.what());
    return;
  }
  ++tallies_[kCheckpoints];
  ++next_checkpoint_seq_;
}

void ServeEngine::RecoverFromStateDir() {
  const std::optional<Manifest> loaded =
      LoadNewestManifest(config_.state_dir);
  if (!loaded.has_value()) return;  // fresh state dir
  const Manifest& m = *loaded;
  // Config-stamp verification: every field below is part of the
  // determinism recipe, so skew is a typed refusal, never a silent reset.
  if (m.model_kind != config_.model_kind) {
    throw StateError("checkpoint was written by model kind '" +
                     m.model_kind + "', engine runs '" + config_.model_kind +
                     "'");
  }
  if (m.num_features != config_.num_features ||
      m.num_classes != config_.num_classes) {
    throw StateError(
        "checkpoint dimensions " + std::to_string(m.num_features) + "x" +
        std::to_string(m.num_classes) + " do not match engine " +
        std::to_string(config_.num_features) + "x" +
        std::to_string(config_.num_classes));
  }
  if (m.seed != config_.seed) {
    throw StateError("checkpoint seed " + std::to_string(m.seed) +
                     " does not match engine seed " +
                     std::to_string(config_.seed));
  }
  if (m.batch_window != config_.batch_window) {
    throw StateError("checkpoint batch_window " +
                     std::to_string(m.batch_window) +
                     " does not match engine batch_window " +
                     std::to_string(config_.batch_window));
  }
  const std::array<double, 5> rates = {
      config_.inject.nan_rate, config_.inject.inf_rate,
      config_.inject.missing_rate, config_.inject.flip_rate,
      config_.inject.truncate_rate};
  if (m.inject_rates != rates) {
    throw StateError(
        "checkpoint fault-injection rates do not match the engine's "
        "--inject spec");
  }

  tallies_ = m.tallies;
  next_checkpoint_seq_ = m.seq + 1;

  for (const ManifestStream& entry : m.streams) {
    const std::uint64_t hash = StreamHash(entry.id);
    if (FindStream(entry.id, hash) != nullptr) {
      throw StateError("checkpoint manifest lists stream '" + entry.id +
                       "' twice");
    }
    StreamState* state = AddStream(entry.id, hash);
    state->rows_trained = entry.rows_trained;
    state->last_touch = entry.last_touch;
    state->last_window = entry.last_window;
    if (!entry.inject_rng.empty()) {
      state->inject_rng = std::make_unique<Rng>(0);
      if (!RngFromText(entry.inject_rng, state->inject_rng.get())) {
        throw StateError("corrupt injection-generator state for stream '" +
                         entry.id + "'");
      }
    }
    if (entry.resident) {
      std::unique_ptr<Classifier> model;
      try {
        model = serial::LoadClassifierFromString(entry.archive);
      } catch (const serial::SerialError& e) {
        throw StateError("corrupt model archive for stream '" + entry.id +
                         "': " + e.what());
      }
      Shard* shard = shards_[state->shard].get();
      const std::string mismatch = AttachIfFits(model.get(), config_, shard);
      if (!mismatch.empty()) {
        throw StateError("stream '" + entry.id + "' " + mismatch);
      }
      state->model = std::move(model);
      ++shard->num_streams;
      *shard->resident_streams = static_cast<double>(shard->num_streams);
      ++resident_;
    } else {
      // Re-materialize the parked file so a later touch can warm-start
      // without going back to the manifest.
      WriteEvictionArchive(config_.state_dir, entry.id, entry.archive);
    }
  }
}

void ServeEngine::ProcessShard(Shard* shard, ShardWork* work) {
  // Regroup per stream, preserving each stream's own request order but
  // ignoring interleaving by other streams: streams are independent, so
  // this is semantically equivalent to global order -- and it makes run
  // coalescing identical at any shard count (see the header contract).
  // A counting sort on the per-window group index, groups numbered in
  // first-appearance order through an open-addressed table at most half
  // full. It probes from the high half of each stream's hash, because
  // the low bits also chose the shard (hash % num_shards) and so are
  // skewed among the streams of one shard.
  const std::vector<Routed>& items = work->queue;
  std::size_t table_size = 1;
  while (table_size < 2 * items.size()) table_size <<= 1;
  if (work->table.size() < table_size) work->table.resize(table_size);
  std::fill_n(work->table.begin(), table_size,
              std::pair<const StreamState*, std::uint32_t>(nullptr, 0));
  work->group_of.resize(items.size());
  work->group_end.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const StreamState* stream = items[i].stream;
    std::size_t at = (stream->hash >> 32) & (table_size - 1);
    while (work->table[at].first != nullptr &&
           work->table[at].first != stream) {
      at = (at + 1) & (table_size - 1);
    }
    if (work->table[at].first == nullptr) {
      work->table[at] = {stream,
                         static_cast<std::uint32_t>(work->group_end.size())};
      work->group_end.push_back(0);
    }
    work->group_of[i] = work->table[at].second;
    ++work->group_end[work->group_of[i]];  // group size for now
  }
  std::uint32_t start = 0;
  for (std::uint32_t& end : work->group_end) {
    const std::uint32_t size = end;
    end = start;  // the group's next free position while placing
    start += size;
  }
  std::vector<const Routed*>& order = work->order;
  order.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    order[work->group_end[work->group_of[i]]++] = &items[i];
  }

  // Each stream's requests are now contiguous, so a maximal same-stream,
  // same-verb run of `order` is one coalesced model call.
  const std::size_t features = static_cast<std::size_t>(config_.num_features);
  std::size_t i = 0;
  while (i < order.size()) {
    const Routed* head = order[i];
    StreamState* stream = head->stream;
    if (head->verb == Verb::kTrain || head->verb == Verb::kScore) {
      std::size_t end = i + 1;
      while (end < order.size() && order[end]->stream == stream &&
             order[end]->verb == head->verb) {
        ++end;
      }
      Batch& batch = shard->scratch_batch;
      batch.clear();
      for (std::size_t j = i; j < end; ++j) {
        const double* row = window_values_.data() + order[j]->values_at;
        batch.Add(std::span<const double>(row, features),
                  head->verb == Verb::kTrain ? static_cast<int>(row[features])
                                             : 0);
      }
      if (head->verb == Verb::kTrain) {
        try {
          stream->model->PartialFit(batch);
          *shard->train_rows += batch.size();
          for (std::size_t j = i; j < end; ++j) {
            std::string& response = responses_[order[j]->slot];
            response.append("OK train ").append(stream->id).append(" n=");
            AppendDecimal(&response, order[j]->ordinal);
          }
        } catch (const std::exception& e) {
          for (std::size_t j = i; j < end; ++j) {
            responses_[order[j]->slot].assign("ERR train ").append(e.what());
          }
        }
      } else {
        try {
          stream->model->PredictBatch(batch, &shard->scratch_proba);
          *shard->score_rows += batch.size();
          for (std::size_t j = i; j < end; ++j) {
            const std::span<const double> proba =
                shard->scratch_proba.row(j - i);
            std::string& response = responses_[order[j]->slot];
            response.append("OK score ").append(stream->id).append(" pred=");
            AppendDecimal(&response,
                          static_cast<std::uint64_t>(ArgMax(proba)));
            response.append(" p=");
            for (std::size_t c = 0; c < proba.size(); ++c) {
              if (c > 0) response.push_back(',');
              AppendG(&response, proba[c]);
            }
          }
        } catch (const std::exception& e) {
          for (std::size_t j = i; j < end; ++j) {
            responses_[order[j]->slot].assign("ERR score ").append(e.what());
          }
        }
      }
      i = end;
      continue;
    }
    std::string& response = responses_[head->slot];
    if (head->verb == Verb::kSnapshot) {
      try {
        serial::SaveClassifierToFile(*stream->model, head->path);
        *shard->snapshots += 1;
        response.append("OK snapshot ")
            .append(stream->id)
            .append(" ")
            .append(head->path);
      } catch (const std::exception& e) {
        response.assign("ERR snapshot ").append(e.what());
      }
    } else {  // kRestore: blue-green -- decode fully, then swap
      try {
        std::unique_ptr<Classifier> loaded =
            serial::LoadClassifierFromFile(head->path);
        const std::string mismatch =
            AttachIfFits(loaded.get(), config_, shard);
        if (!mismatch.empty()) {
          response.append("ERR restore ").append(mismatch);
        } else {
          stream->model = std::move(loaded);
          *shard->restores += 1;
          response.append("OK restore ").append(stream->id);
        }
      } catch (const std::exception& e) {
        response.assign("ERR restore ").append(e.what());
      }
    }
    ++i;
  }
}

void ServeEngine::ExportTelemetry() {
  ++exporter_flushes_;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    config_.exporter->WriteLine(shards_[s]->ExportLine(s, exporter_flushes_));
  }
}

void ServeEngine::AppendStatsLine(std::string* out) const {
  // Routing-time tallies only: everything here is a pure function of the
  // request sequence, so `stats` responses match at any shard count.
  out->append("OK stats {\"streams\": ");
  AppendDecimal(out, num_streams_);
  out->append(", \"resident_streams\": ");
  AppendDecimal(out, resident_);
  for (const auto& [name, tally] : kStatsFields) {
    out->append(", \"").append(name).append("\": ");
    AppendDecimal(out, tallies_[tally]);
  }
  out->push_back('}');
}

void ServeEngine::Finish(std::ostream& out) {
  Flush(out);
  if (!config_.state_dir.empty()) WriteCheckpoint();
  if (config_.exporter != nullptr) ExportTelemetry();
}

void ServeEngine::RunScript(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) ServeLine(line, out);
  Finish(out);
}

}  // namespace dmt::serve
