#include "dmt/trees/fimtdd_tree.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/obs/telemetry.h"
#include "dmt/trees/fimtdd.h"
#include "dmt/trees/fimtdd_regressor.h"
#include "dmt/trees/split_criteria.h"

namespace dmt::trees {

// --- Target policies --------------------------------------------------------

// The classification adaptation treats the one-hot encoded label as a
// multi-target regression problem: the SDR of a split is the summed
// standard-deviation reduction over the per-class indicator targets (a
// Bernoulli indicator's sufficient statistic is just its count). A raw
// class *index* as the numeric target would make the criterion depend on the
// arbitrary label encoding and fail beyond binary problems.
struct ClassTarget::Stat {
  std::vector<double> class_counts;
  double n = 0.0;

  explicit Stat(const Config& config)
      : class_counts(static_cast<std::size_t>(config.num_classes), 0.0) {}
  void Add(Label y) {
    class_counts[y] += 1.0;
    n += 1.0;
  }
  void Merge(const Stat& other) {
    for (std::size_t c = 0; c < class_counts.size(); ++c) {
      class_counts[c] += other.class_counts[c];
    }
    n += other.n;
  }
  void SetDifference(const Stat& whole, const Stat& part) {
    for (std::size_t c = 0; c < class_counts.size(); ++c) {
      class_counts[c] = whole.class_counts[c] - part.class_counts[c];
    }
    n = whole.n - part.n;
  }
  // Summed standard deviation of the per-class Bernoulli indicators.
  double StdDev() const {
    if (n <= 1.0) return 0.0;
    double sum = 0.0;
    for (double count : class_counts) {
      const double p = count / n;
      const double var = p * (1.0 - p);
      sum += var > 0.0 ? std::sqrt(var) : 0.0;
    }
    return sum;
  }
  void Save(serial::Writer& writer) const {
    writer.VecF64(class_counts);
    writer.F64(n);
  }
  void Load(serial::Reader& reader) {
    class_counts = reader.VecF64Exact(class_counts.size());
    n = reader.F64();
  }
};

struct ClassTarget::Drift {
  double Signal(double error) { return error; }
  void Save(serial::Writer&) const {}
  void Load(serial::Reader&) {}
};

linear::Glm::Config ClassTarget::ModelConfig(const Config& config) {
  return {.num_features = config.num_features,
          .num_classes = config.num_classes,
          .learning_rate = config.leaf_learning_rate};
}

bool ClassTarget::Usable(const Config& config, Label y) {
  return y >= 0 && y < config.num_classes;
}

double ClassTarget::Error(const Model& leaf, std::span<const double> x,
                          Label y) {
  return leaf.Predict(x) == y ? 0.0 : 1.0;
}

std::uint64_t ClassTarget::StatWidth(const Config& config) {
  return static_cast<std::uint64_t>(config.num_classes);
}

struct NumericTarget::Stat : TargetStats {
  explicit Stat(const Config&) {}
  void SetDifference(const Stat& whole, const Stat& part) {
    n = whole.n - part.n;
    sum = whole.sum - part.sum;
    sum_sq = whole.sum_sq - part.sum_sq;
  }
  void Save(serial::Writer& writer) const {
    writer.F64(n);
    writer.F64(sum);
    writer.F64(sum_sq);
  }
  void Load(serial::Reader& reader) {
    n = reader.F64();
    sum = reader.F64();
    sum_sq = reader.F64();
  }
};

// Running scale of a node's absolute residuals, so the Page-Hinkley input
// is normalized (the PH deltas are calibrated for O(1) inputs).
struct NumericTarget::Drift {
  double abs_error_mean = 0.0;
  double abs_error_count = 0.0;

  double Signal(double abs_error) {
    abs_error_count += 1.0;
    abs_error_mean += (abs_error - abs_error_mean) / abs_error_count;
    return abs_error / std::max(abs_error_mean, 1e-9);
  }
  void Save(serial::Writer& writer) const {
    writer.F64(abs_error_mean);
    writer.F64(abs_error_count);
  }
  void Load(serial::Reader& reader) {
    abs_error_mean = reader.F64();
    abs_error_count = reader.F64();
  }
};

linear::LinearRegressor::Config NumericTarget::ModelConfig(
    const Config& config) {
  return {.num_features = config.num_features,
          .learning_rate = config.leaf_learning_rate};
}

bool NumericTarget::Usable(const Config&, Label y) { return std::isfinite(y); }

double NumericTarget::Error(const Model& leaf, std::span<const double> x,
                            Label y) {
  return std::abs(leaf.Predict(x) - y);
}

std::uint64_t NumericTarget::StatWidth(const Config&) { return 1; }

// --- Core -------------------------------------------------------------------

namespace {

// Throws SerialError "<label> <what>" unless `ok`.
template <typename Target>
void Require(bool ok, const char* what) {
  if (!ok) {
    serial::Check(false, (std::string(Target::kLabel) + " " + what).c_str());
  }
}

// Per-feature histogram of target statistics, scoring SDR split candidates
// at bin boundaries: the bounded-memory stand-in for FIMT-DD's extended
// binary search trees. Only bin contents are archived; the geometry
// re-derives from the tree config.
template <typename Target>
class Histogram {
 public:
  using Config = typename Target::Config;
  using Stat = typename Target::Stat;

  explicit Histogram(const Config& config)
      : lo_(config.feature_lo),
        width_((config.feature_hi - config.feature_lo) / config.num_bins),
        bins_(static_cast<std::size_t>(config.num_bins), Stat(config)) {}

  void Add(double value, typename Target::Label y) {
    bins_[BinOf(value)].Add(y);
  }

  // Best binary split "x <= boundary" by SDR against `parent`.
  void BestSplit(const Config& config, const Stat& parent, double* best_sdr,
                 double* best_threshold) const {
    *best_sdr = 0.0;
    *best_threshold = lo_;
    Stat left(config);
    Stat right(config);
    for (std::size_t b = 0; b + 1 < bins_.size(); ++b) {
      left.Merge(bins_[b]);
      if (left.n < 1.0 || parent.n - left.n < 1.0) continue;
      right.SetDifference(parent, left);
      const double sdr = StdDevReduction(parent, left, right);
      if (sdr > *best_sdr) {
        *best_sdr = sdr;
        *best_threshold = lo_ + width_ * static_cast<double>(b + 1);
      }
    }
  }

  void Save(serial::Writer& writer) const {
    for (const Stat& bin : bins_) bin.Save(writer);
  }
  void Load(serial::Reader& reader) {
    for (Stat& bin : bins_) bin.Load(reader);
  }

 private:
  int BinOf(double value) const {
    return std::clamp(static_cast<int>((value - lo_) / width_), 0,
                      static_cast<int>(bins_.size()) - 1);
  }

  double lo_;
  double width_;
  std::vector<Stat> bins_;
};

}  // namespace

template <typename Target>
struct FimtDdTree<Target>::Node {
  // The leaf model, built first: its constructor validates the model
  // settings before any histogram is sized, then draws initial weights.
  // Inner nodes stop updating theirs, one of the documented differences to
  // the DMT.
  typename Target::Model model;

  int split_feature = -1;  // < 0 marks a leaf
  double split_value = 0.0;
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;

  // Leaf statistics for split finding; split nodes clear their histograms.
  std::vector<Histogram<Target>> histograms;
  typename Target::Stat target_stats;
  double weight_seen = 0.0;
  double weight_at_last_attempt = 0.0;

  // Page-Hinkley test on the subtree's drift signal.
  drift::PageHinkley drift_test;
  typename Target::Drift drift_signal;

  Node(const Config& config, Rng* rng)
      : model(Target::ModelConfig(config), rng),
        histograms(static_cast<std::size_t>(config.num_features),
                   Histogram<Target>(config)),
        target_stats(config),
        drift_test(config.page_hinkley) {}

  bool is_leaf() const { return split_feature < 0; }

  void ResetLeafStats(const Config& config) {
    histograms.assign(static_cast<std::size_t>(config.num_features),
                      Histogram<Target>(config));
    target_stats = typename Target::Stat(config);
    weight_seen = 0.0;
    weight_at_last_attempt = 0.0;
  }
};

template <typename Target>
FimtDdTree<Target>::FimtDdTree(const Config& config)
    : config_(config), rng_(config.seed) {
  DMT_CHECK(config.num_features >= 1);
  root_ = MakeNode();
}

template <typename Target>
FimtDdTree<Target>::~FimtDdTree() = default;

template <typename Target>
std::unique_ptr<typename FimtDdTree<Target>::Node>
FimtDdTree<Target>::MakeNode() {
  auto node = std::make_unique<Node>(config_, &rng_);
  node->drift_test.BindTelemetry(ph_resets_counter_);
  return node;
}

template <typename Target>
void FimtDdTree<Target>::BindTelemetry(obs::TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  split_attempts_counter_ = registry->Counter("fimtdd.split_attempts");
  splits_counter_ = registry->Counter("fimtdd.splits");
  prunes_counter_ = registry->Counter("fimtdd.prunes");
  ph_resets_counter_ = registry->Counter("ph.resets");
  auto walk = [&](auto&& self, Node* node) -> void {
    node->drift_test.BindTelemetry(ph_resets_counter_);
    if (node->is_leaf()) return;
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
}

template <typename Target>
void FimtDdTree<Target>::TrainInstance(std::span<const double> x,
                                       typename Target::Label y) {
  if (!RowIsFinite(x) || !Target::Usable(config_, y)) return;
  // Route to the leaf, remembering the path for drift monitoring.
  std::vector<Node*> path;
  Node* node = root_.get();
  while (true) {
    path.push_back(node);
    if (node->is_leaf()) break;
    node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                       : node->right.get();
  }
  Node* leaf = node;

  // Every node on the path sees the active leaf's error. An inner node's
  // Page-Hinkley alert deletes its subtree, and the node learns on as a
  // fresh leaf.
  const double error = Target::Error(leaf->model, x, y);
  for (Node* n : path) {
    const double signal = n->drift_signal.Signal(error);
    if (!n->is_leaf() && n->drift_test.Update(signal)) {
      n->split_feature = -1;
      n->left.reset();
      n->right.reset();
      n->ResetLeafStats(config_);
      ++num_prunes_;
      DMT_TELEMETRY_COUNT(prunes_counter_);
      leaf = n;
      break;
    }
  }

  leaf->target_stats.Add(y);
  leaf->weight_seen += 1.0;
  for (int j = 0; j < config_.num_features; ++j) {
    leaf->histograms[j].Add(x[j], y);
  }
  typename Target::Batch one(static_cast<std::size_t>(config_.num_features));
  one.Add(x, y);
  leaf->model.Fit(one);

  if (leaf->weight_seen - leaf->weight_at_last_attempt >=
      static_cast<double>(config_.grace_period)) {
    leaf->weight_at_last_attempt = leaf->weight_seen;
    AttemptSplit(leaf);
  }
}

template <typename Target>
void FimtDdTree<Target>::AttemptSplit(Node* leaf) {
  DMT_TELEMETRY_COUNT(split_attempts_counter_);
  double best_sdr = 0.0;
  double second_sdr = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;
  for (int j = 0; j < config_.num_features; ++j) {
    double sdr = 0.0;
    double threshold = 0.0;
    leaf->histograms[j].BestSplit(config_, leaf->target_stats, &sdr,
                                  &threshold);
    if (sdr > best_sdr) {
      second_sdr = best_sdr;
      best_sdr = sdr;
      best_feature = j;
      best_threshold = threshold;
    } else if (sdr > second_sdr) {
      second_sdr = sdr;
    }
  }
  if (best_feature < 0 || best_sdr <= 0.0) return;

  // FIMT-DD's ratio test: split when the second-best SDR is significantly
  // smaller than the best (ratio in [0,1], range 1). Once the Hoeffding
  // bound undercuts the tie threshold, the tie threshold takes over as the
  // required margin -- a plain "epsilon < tie -> always split" rule would
  // split every grace period regardless of merit and grow without bound.
  const double ratio = second_sdr / best_sdr;
  const double epsilon =
      HoeffdingBound(1.0, config_.split_confidence, leaf->weight_seen);
  if (ratio < 1.0 - std::min(epsilon, config_.tie_threshold)) {
    DMT_TELEMETRY_COUNT(splits_counter_);
    leaf->split_feature = best_feature;
    leaf->split_value = best_threshold;
    leaf->left = MakeNode();
    leaf->right = MakeNode();
    // Children warm-start from the parent's optimized model.
    leaf->left->model.WarmStartFrom(leaf->model);
    leaf->right->model.WarmStartFrom(leaf->model);
    leaf->histograms.clear();
  }
}

template <typename Target>
const typename Target::Model& FimtDdTree<Target>::LeafModel(
    std::span<const double> x) const {
  const Node* node = root_.get();
  while (!node->is_leaf()) {
    node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                       : node->right.get();
  }
  return node->model;
}

template <typename Target>
std::size_t FimtDdTree<Target>::NumLeaves() const {
  std::size_t leaves = 0;
  auto walk = [&](auto&& self, const Node* node) -> void {
    if (node->is_leaf()) {
      ++leaves;
      return;
    }
    self(self, node->left.get());
    self(self, node->right.get());
  };
  walk(walk, root_.get());
  return leaves;
}

// --- Persistence ------------------------------------------------------------

template <typename Target>
void FimtDdTree<Target>::SaveConfig(serial::Writer& writer) const {
  writer.Size(config_.grace_period);
  writer.F64(config_.split_confidence);
  writer.F64(config_.tie_threshold);
  writer.F64(config_.leaf_learning_rate);
  writer.I32(config_.num_bins);
  writer.F64(config_.feature_lo);
  writer.F64(config_.feature_hi);
  writer.Size(config_.page_hinkley.min_instances);
  writer.F64(config_.page_hinkley.delta);
  writer.F64(config_.page_hinkley.threshold);
  writer.F64(config_.page_hinkley.alpha);
  writer.U64(config_.seed);
}

template <typename Target>
void FimtDdTree<Target>::LoadConfig(serial::Reader& reader, Config* config) {
  auto what = [](const char* field) {
    return std::string(Target::kLabel) + " " + field;
  };
  config->grace_period = reader.Size(std::size_t{1} << 62);
  config->split_confidence = serial::CheckedFinite(
      reader.F64(), what("split confidence").c_str());
  config->tie_threshold =
      serial::CheckedFinite(reader.F64(), what("tie threshold").c_str());
  config->leaf_learning_rate =
      serial::CheckedFinite(reader.F64(), what("learning rate").c_str());
  config->num_bins = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, 1 << 20, what("bin count").c_str()));
  // Per-leaf memory is features * bins * StatWidth doubles; bound the
  // product so a hostile config cannot demand gigabytes before the stream
  // runs dry.
  Require<Target>(static_cast<std::uint64_t>(config->num_features) *
                          Target::StatWidth(*config) *
                          static_cast<std::uint64_t>(config->num_bins) <=
                      static_cast<std::uint64_t>(serial::kMaxVector),
                  "histogram dimensions exceed the archive limit");
  config->feature_lo =
      serial::CheckedFinite(reader.F64(), what("range lo").c_str());
  config->feature_hi =
      serial::CheckedFinite(reader.F64(), what("range hi").c_str());
  // A degenerate range makes the bin width zero and BinOf would cast an
  // infinite quotient to int (undefined behavior).
  Require<Target>(config->feature_hi > config->feature_lo,
                  "feature range is empty");
  config->page_hinkley.min_instances = reader.Size(std::size_t{1} << 62);
  config->page_hinkley.delta =
      serial::CheckedFinite(reader.F64(), "Page-Hinkley delta");
  config->page_hinkley.threshold =
      serial::CheckedFinite(reader.F64(), "Page-Hinkley threshold");
  config->page_hinkley.alpha =
      serial::CheckedFinite(reader.F64(), "Page-Hinkley alpha");
  config->seed = reader.U64();
}

template <typename Target>
void FimtDdTree<Target>::SaveState(serial::Writer& writer) const {
  writer.Size(num_prunes_);
  auto save = [&](auto&& self, const Node& node) -> void {
    writer.I32(node.split_feature);
    writer.F64(node.split_value);
    writer.Size(node.histograms.size());
    for (const Histogram<Target>& histogram : node.histograms) {
      histogram.Save(writer);
    }
    node.target_stats.Save(writer);
    writer.F64(node.weight_seen);
    writer.F64(node.weight_at_last_attempt);
    node.model.SaveState(writer);
    node.drift_test.Save(writer);
    node.drift_signal.Save(writer);
    if (!node.is_leaf()) {
      self(self, *node.left);
      self(self, *node.right);
    }
  };
  save(save, *root_);
  writer.Engine(rng_.engine());
}

template <typename Target>
void FimtDdTree<Target>::LoadState(serial::Reader& reader) {
  num_prunes_ = reader.Size(std::size_t{1} << 62);
  root_ = LoadNode(reader, 0);
  // Engine last: node construction above drew initial model weights.
  reader.Engine(&rng_.engine());
}

template <typename Target>
std::unique_ptr<typename FimtDdTree<Target>::Node>
FimtDdTree<Target>::LoadNode(serial::Reader& reader, std::size_t depth) {
  Require<Target>(depth <= serial::kMaxTreeDepth,
                  "node depth exceeds the archive limit");
  std::unique_ptr<Node> node = MakeNode();
  const std::int32_t split_feature = reader.I32();
  Require<Target>(split_feature >= -1 && split_feature < config_.num_features,
                  "split feature out of range");
  node->split_feature = static_cast<int>(split_feature);
  node->split_value = reader.F64();
  // Leaves keep one histogram per feature (training indexes histograms[j]
  // for every feature); split nodes keep none.
  const std::size_t features = static_cast<std::size_t>(config_.num_features);
  const std::size_t num_histograms = reader.Size(features);
  Require<Target>(num_histograms == 0 || num_histograms == features,
                  "histogram count is neither empty nor one per feature");
  if (num_histograms == 0) {
    node->histograms.clear();
  } else {
    for (Histogram<Target>& histogram : node->histograms) {
      histogram.Load(reader);
    }
  }
  node->target_stats.Load(reader);
  node->weight_seen = reader.F64();
  node->weight_at_last_attempt = reader.F64();
  node->model.LoadState(reader);
  node->drift_test = drift::PageHinkley::Load(reader);
  node->drift_signal.Load(reader);
  if (!node->is_leaf()) {
    node->left = LoadNode(reader, depth + 1);
    node->right = LoadNode(reader, depth + 1);
  } else {
    Require<Target>(num_histograms == features,
                    "leaf is missing its histograms");
  }
  return node;
}

template class FimtDdTree<ClassTarget>;
template class FimtDdTree<NumericTarget>;

}  // namespace dmt::trees
