// FIMT-DD (Ikonomovska, Gama & Dzeroski, 2011), adapted for classification
// exactly as in the paper (Sec. VI-C, footnote 2): the original algorithm is
// a regression model tree, so the one-hot label serves as the numeric
// target of the standard-deviation-reduction (SDR) split criterion, leaves
// carry incremental GLM models (learning rate 0.01) for prediction, splits
// are accepted through a Hoeffding-bound ratio test (confidence threshold
// 0.01, tie threshold 0.05), and a per-node Page-Hinkley test on the 0/1
// error implements the authors' second drift adjustment strategy: subtrees
// are deleted where the test alerts.
//
// The algorithm lives in the FIMT-DD core (fimtdd_tree.h), shared with the
// regression FimtDdRegressor; this adapter adds the Classifier interface,
// the paper's counting rules and the "fimtdd.*" telemetry. The
// classification adaptation itself is ClassTarget.
//
// Contrast with the Dynamic Model Tree (Sec. V-D of the paper): FIMT-DD
// relies on a purity measure plus Hoeffding's inequality, needs an explicit
// drift detector, and stops updating inner-node models after splitting.
#ifndef DMT_TREES_FIMTDD_H_
#define DMT_TREES_FIMTDD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "dmt/common/classifier.h"
#include "dmt/drift/page_hinkley.h"
#include "dmt/trees/fimtdd_tree.h"

namespace dmt::trees {

struct FimtDdConfig {
  int num_features = 0;
  int num_classes = 2;
  std::size_t grace_period = 200;
  // Paper defaults: Hoeffding significance threshold 0.01, tie break 0.05,
  // simple-model learning rate 0.01.
  double split_confidence = 0.01;
  double tie_threshold = 0.05;
  double leaf_learning_rate = 0.01;
  // Per-feature target histogram resolution over `feature_lo..feature_hi`
  // (features are min-max normalized by the evaluation harness).
  int num_bins = 64;
  double feature_lo = 0.0;
  double feature_hi = 1.0;
  drift::PageHinkleyConfig page_hinkley;
  std::uint64_t seed = 42;
};

class FimtDd : public Classifier, public FimtDdTree<ClassTarget> {
 public:
  explicit FimtDd(const FimtDdConfig& config);
  ~FimtDd() override;

  void PartialFit(const Batch& batch) override;
  int num_classes() const override { return config_.num_classes; }
  int num_features() const override { return config_.num_features; }
  void PredictProbaInto(std::span<const double> x,
                        std::span<double> out) const override;
  std::size_t NumSplits() const override;
  std::size_t NumParameters() const override;
  std::string name() const override { return "FIMT-DD"; }
  // TrainInstance, NumInnerNodes, NumLeaves and NumPrunes are inherited
  // from FimtDdTree.

  // "fimtdd.*" and "ph.resets" counters; see FimtDdTree::BindTelemetry.
  void AttachTelemetry(obs::TelemetryRegistry* registry) override {
    BindTelemetry(registry);
  }

  // --- Persistence (binary archive; see serial/archive.h) ---
  // Config, prune count, recursive node records (SDR histograms, leaf GLM
  // state, Page-Hinkley tests) and the RNG engine, written last so Load
  // restores it after construction-time GLM weight draws.
  void Save(std::ostream& out) const override;
  static std::unique_ptr<FimtDd> Load(std::istream& in);
  void SaveBody(serial::Writer& writer) const;
  static std::unique_ptr<FimtDd> LoadBody(serial::Reader& reader);
};

}  // namespace dmt::trees

#endif  // DMT_TREES_FIMTDD_H_
