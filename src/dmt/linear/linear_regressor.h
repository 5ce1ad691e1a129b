// Incremental linear regression under a Gaussian likelihood -- the "simple
// model" of the regression Dynamic Model Tree (the paper's framework is
// generic in the model/loss choice, Sec. V; FIMT-DD, its main competitor,
// is natively a regression method).
//
// The loss is the Gaussian negative log-likelihood with unit variance,
// L = 0.5 * (y - w.x - b)^2 + const; we drop the constant so the loss is
// exactly half the squared error, keeping the DMT gain machinery (candidate
// gradients, Eqs. 6-7) unchanged.
#ifndef DMT_LINEAR_LINEAR_REGRESSOR_H_
#define DMT_LINEAR_LINEAR_REGRESSOR_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "dmt/common/random.h"
#include "dmt/common/types.h"

namespace dmt::serial {
class Writer;
class Reader;
}  // namespace dmt::serial

namespace dmt::linear {

// A batch of regression observations: features plus real-valued targets.
class RegressionBatch {
 public:
  explicit RegressionBatch(std::size_t num_features)
      : num_features_(num_features) {}

  std::size_t size() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }
  std::size_t num_features() const { return num_features_; }

  void Add(std::span<const double> x, double y) {
    data_.insert(data_.end(), x.begin(), x.end());
    targets_.push_back(y);
  }
  std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * num_features_, num_features_};
  }
  std::span<double> mutable_row(std::size_t i) {
    return {data_.data() + i * num_features_, num_features_};
  }
  double target(std::size_t i) const { return targets_[i]; }
  const std::vector<double>& targets() const { return targets_; }

  void clear() {
    data_.clear();
    targets_.clear();
  }

  // In-place row compaction support, mirroring Batch (common/types.h):
  // MoveRow slides a surviving row left, Truncate drops the tail.
  void MoveRow(std::size_t from, std::size_t to) {
    if (from == to) return;
    std::copy_n(data_.begin() + from * num_features_, num_features_,
                data_.begin() + to * num_features_);
    targets_[to] = targets_[from];
  }
  void Truncate(std::size_t n) {
    data_.resize(n * num_features_);
    targets_.resize(n);
  }

 private:
  std::size_t num_features_;
  std::vector<double> data_;
  std::vector<double> targets_;
};

struct LinearRegressorConfig {
  int num_features = 0;
  double learning_rate = 0.01;
  double init_scale = 0.1;
  std::uint64_t seed = 42;
  // Hard cap on the per-sample gradient L2 norm (|err| * sqrt(||x||^2+1));
  // larger gradients are rescaled to the cap. 0 disables. Unlike the GLM,
  // regression residuals are unbounded even on clean data, so the default
  // sits far above any plausible honest error and only a divergence spiral
  // (err growing without bound) can reach it.
  double max_gradient_norm = 1e6;
};

class LinearRegressor {
 public:
  using Config = LinearRegressorConfig;

  explicit LinearRegressor(const LinearRegressorConfig& config);
  LinearRegressor(const LinearRegressorConfig& config, Rng* rng);

  int num_params() const { return static_cast<int>(params_.size()); }
  int num_features() const { return num_features_; }

  void Fit(const RegressionBatch& batch);
  void FitRows(const RegressionBatch& batch,
               std::span<const std::size_t> rows);
  // SGD over a gathered row-major tile, in tile order; bit-identical to
  // FitRows over the gathered rows (see Glm::FitTile).
  void FitTile(const double* tile, const double* targets, std::size_t n);

  // Per-sample loss and gradient at the current (fixed) parameters over a
  // tile, four dot products at a time (kernels::DotBatch4); row i is
  // bit-identical to LossAndGradientOne on that row.
  void LossAndGradientTile(const double* tile, const double* targets,
                           std::size_t n, double* loss_out,
                           double* grad_out) const;

  double Predict(std::span<const double> x) const;

  // Half squared error of one observation / a batch at current parameters.
  double LossOne(std::span<const double> x, double y) const;
  double Loss(const RegressionBatch& batch) const;

  // Loss and gradient of one observation; `grad_out` is overwritten.
  double LossAndGradientOne(std::span<const double> x, double y,
                            std::span<double> grad_out) const;

  void WarmStartFrom(const LinearRegressor& parent);

  // Divergence protection, mirroring Glm: non-finite samples are skipped,
  // non-finite parameters are zero-reset after the offending Fit call.
  std::uint64_t num_resets() const { return num_resets_; }
  std::uint64_t num_skipped_samples() const { return num_skipped_samples_; }
  void set_resets_counter(std::uint64_t* counter) {
    resets_counter_ = counter;
  }

  const std::vector<double>& params() const { return params_; }
  std::vector<double> FeatureWeights() const {
    return {params_.begin(), params_.end() - 1};
  }

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Mutable state only (params + divergence tallies), for models embedded
  // in a tree that re-derives the config. LoadState requires the archived
  // parameter count to match this model's.
  void SaveState(serial::Writer& writer) const;
  void LoadState(serial::Reader& reader);
  // Whole-model record. The retained hyperparameters (num_features,
  // learning_rate, max_gradient_norm) round-trip; init_scale/seed only
  // matter at construction and are not part of the mutable state.
  void Save(std::ostream& out) const;
  static std::unique_ptr<LinearRegressor> Load(std::istream& in);

 private:
  void SgdStep(std::span<const double> x, double y);
  void CheckParamsFinite();

  int num_features_;
  double learning_rate_;
  double max_gradient_norm_;
  std::vector<double> params_;  // [w_0..w_{m-1}, b]
  std::uint64_t num_resets_ = 0;
  std::uint64_t num_skipped_samples_ = 0;
  std::uint64_t* resets_counter_ = nullptr;
};

}  // namespace dmt::linear

#endif  // DMT_LINEAR_LINEAR_REGRESSOR_H_
