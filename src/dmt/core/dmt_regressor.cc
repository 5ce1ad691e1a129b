#include "dmt/core/dmt_regressor.h"

#include <algorithm>
#include <cmath>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/serial/model_io.h"

namespace dmt::core {

DmtRegressor::DmtRegressor(const DmtRegressorConfig& config)
    : DmtTree(DmtTreeConfig::From(config),
              {.num_features = config.num_features,
               .learning_rate = config.learning_rate}),
      config_(config),
      standardized_(static_cast<std::size_t>(config.num_features)) {}

void DmtRegressor::PartialFit(const linear::RegressionBatch& batch) {
  DMT_CHECK(static_cast<int>(batch.num_features()) == config_.num_features);
  // Rows with a non-finite feature or target are unusable: they would
  // poison the running target statistics and break ComputeFeatureOrders'
  // sort comparator (NaN violates strict weak ordering). Skip them here;
  // the standardized copy below is the natural filter point.
  auto usable = [&](std::size_t i) {
    return std::isfinite(batch.target(i)) && RowIsFinite(batch.row(i));
  };
  // Standardize targets with the running estimates (updated first, so the
  // very first batch already has a usable scale).
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (usable(i)) target_stats_.Add(batch.target(i));
  }
  const double mean = target_stats_.mean();
  const double std = std::max(target_stats_.stddev(), 1e-9);
  standardized_.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (usable(i)) {
      standardized_.Add(batch.row(i), (batch.target(i) - mean) / std);
    }
  }
  if (standardized_.empty()) return;
  DmtTree::PartialFit(standardized_);
}

double DmtRegressor::Predict(std::span<const double> x) const {
  // De-standardize back to the original target units.
  const double std = std::max(target_stats_.stddev(), 1e-9);
  return LeafModel(x).Predict(x) * std + target_stats_.mean();
}

std::size_t DmtRegressor::NumSplits() const {
  // Regression model leaves add one split each (cf. binary classification).
  return NumInnerNodes() + NumLeaves();
}

std::size_t DmtRegressor::NumParameters() const {
  return NumInnerNodes() +
         NumLeaves() * static_cast<std::size_t>(config_.num_features);
}

void DmtRegressor::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagDmtRegressor);
  writer.I32(config_.num_features);
  writer.F64(config_.learning_rate);
  SaveConfig(writer);
  writer.Size(target_stats_.count());
  writer.F64(target_stats_.mean());
  writer.F64(target_stats_.m2());
  SaveState(writer);
}

std::unique_ptr<DmtRegressor> DmtRegressor::Load(std::istream& in) {
  serial::Reader reader(in);
  reader.Header(serial::kTagDmtRegressor);
  DmtRegressorConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "DMT-R feature count"));
  config.learning_rate =
      serial::CheckedFinite(reader.F64(), "DMT-R learning rate");
  LoadTreeConfig(reader, "DMT-R", &config);
  auto tree = std::make_unique<DmtRegressor>(config);
  const std::size_t stats_n = reader.Size(std::size_t{1} << 62);
  const double stats_mean = reader.F64();
  const double stats_m2 = reader.F64();
  tree->target_stats_.Restore(stats_n, stats_mean, stats_m2);
  tree->LoadState(reader, "DMT-R");
  return tree;
}

}  // namespace dmt::core
