// FIMT-DD in its ORIGINAL form (Ikonomovska, Gama & Dzeroski, 2011):
// an incremental regression model tree. Splits maximize the standard
// deviation reduction of the numeric target, accepted through the
// Hoeffding-bound ratio test; leaves carry incremental linear models; a
// Page-Hinkley test per inner node monitors the absolute residual and
// deletes the subtree on alert (the drift adjustment strategy the paper's
// classification adaptation also uses).
//
// The algorithm lives in the FIMT-DD core (fimtdd_tree.h), shared with the
// classifier FimtDd; this adapter runs it with NumericTarget and adds the
// regression API, the counting rules and the archive tag.
//
// This is the natural head-to-head competitor of the regression Dynamic
// Model Tree (core/dmt_regressor.h).
#ifndef DMT_TREES_FIMTDD_REGRESSOR_H_
#define DMT_TREES_FIMTDD_REGRESSOR_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>

#include "dmt/drift/page_hinkley.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/trees/fimtdd_tree.h"

namespace dmt::trees {

struct FimtDdRegressorConfig {
  int num_features = 0;
  std::size_t grace_period = 200;
  double split_confidence = 0.01;
  double tie_threshold = 0.05;
  double leaf_learning_rate = 0.01;
  int num_bins = 64;
  double feature_lo = 0.0;
  double feature_hi = 1.0;
  drift::PageHinkleyConfig page_hinkley;
  std::uint64_t seed = 42;
};

class FimtDdRegressor : public FimtDdTree<NumericTarget> {
 public:
  explicit FimtDdRegressor(const FimtDdRegressorConfig& config);

  void PartialFit(const linear::RegressionBatch& batch);
  double Predict(std::span<const double> x) const {
    return LeafModel(x).Predict(x);
  }

  std::size_t NumSplits() const;
  std::size_t NumParameters() const;
  std::string name() const { return "FIMT-DD-R"; }
  // TrainInstance, NumInnerNodes, NumLeaves and NumPrunes are inherited
  // from FimtDdTree.

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Config, prune count, recursive node records (target histograms, leaf
  // linear-model state, Page-Hinkley tests) and the RNG engine, written
  // last so Load restores it after construction-time weight draws.
  void Save(std::ostream& out) const;
  static std::unique_ptr<FimtDdRegressor> Load(std::istream& in);
};

}  // namespace dmt::trees

#endif  // DMT_TREES_FIMTDD_REGRESSOR_H_
