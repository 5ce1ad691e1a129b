// Stochastic Gradient Tree (after Gouk, Pfahringer & Frank, ACML 2019) --
// the other gradient-driven incremental tree the paper cites ([33]) for
// split finding. Included as an additional baseline.
//
// The tree predicts a raw score; each leaf carries an additive value.
// Training accumulates first- and second-order derivatives (gradient /
// hessian of the logistic loss w.r.t. the leaf score) in per-feature
// histograms. Every grace period a leaf either performs the best
// Newton-gain split -- gain computed XGBoost-style as
//   sum_children (sum g)^2 / (sum h + lambda) - (sum g)^2 / (sum h + lambda)
// when it exceeds `min_gain` -- or applies a Newton update
// -sum g / (sum h + lambda) to its value. Multiclass problems train one
// tree per class one-vs-rest over softmax-normalized scores
// (SgtClassifier).
#ifndef DMT_TREES_SGT_H_
#define DMT_TREES_SGT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dmt/common/classifier.h"

namespace dmt::serial {
class Writer;
class Reader;
}  // namespace dmt::serial

namespace dmt::trees {

struct SgtConfig {
  int num_features = 0;
  std::size_t grace_period = 200;
  // Regularization lambda of the Newton steps and gains.
  double l2_regularization = 1.0;
  // Minimum Newton gain required to split instead of updating the leaf.
  double min_split_gain = 5.0;
  // Histogram resolution per feature over [feature_lo, feature_hi].
  int num_bins = 32;
  double feature_lo = 0.0;
  double feature_hi = 1.0;
};

// Binary stochastic gradient tree: emits a raw score s(x); P(y=1) is
// sigmoid(s). Can also be driven with externally supplied gradients
// (one-vs-rest use).
class StochasticGradientTree {
 public:
  explicit StochasticGradientTree(const SgtConfig& config);
  ~StochasticGradientTree();

  // Raw additive score of the routed leaf.
  double Score(std::span<const double> x) const;

  // One observation with explicit first/second derivatives of the loss
  // w.r.t. the score at x (logistic loss: g = p - y, h = p (1 - p)).
  void TrainGradient(std::span<const double> x, double gradient,
                     double hessian);
  // Convenience: binary logistic training.
  void TrainInstance(std::span<const double> x, int y);

  std::size_t NumInnerNodes() const;
  std::size_t NumLeaves() const;

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Tree-only record (no header): recursive node values and gradient
  // histograms. The config is written by the owning SgtClassifier.
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<StochasticGradientTree> LoadBody(
      serial::Reader& reader, const SgtConfig& config);

 private:
  struct Node;

  void MaybeSplitOrUpdate(Node* leaf);

  SgtConfig config_;
  std::unique_ptr<Node> root_;
};

// Classifier adapter: one tree (binary) or one tree per class (softmax
// one-vs-rest) with the shared Classifier interface.
class SgtClassifier : public Classifier {
 public:
  SgtClassifier(const SgtConfig& config, int num_classes);

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return num_classes_; }
  int num_features() const override { return config_.num_features; }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override { return "SGT"; }

  // --- Persistence (binary archive; see serial/archive.h) ---
  void Save(std::ostream& out) const override;
  static std::unique_ptr<SgtClassifier> Load(std::istream& in);
  static std::unique_ptr<SgtClassifier> LoadBody(serial::Reader& reader);

 private:
  SgtConfig config_;
  int num_classes_;
  std::vector<std::unique_ptr<StochasticGradientTree>> trees_;
  // Softmax scratch for the one-vs-rest training loop (multiclass only).
  std::vector<double> train_scores_;
};

}  // namespace dmt::trees

#endif  // DMT_TREES_SGT_H_
