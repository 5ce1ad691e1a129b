// The FIMT-DD core (Ikonomovska, Gama & Dzeroski, 2011), shared by the
// paper's classification adaptation (FimtDd, Sec. VI-C, footnote 2) and the
// original regression model tree (FimtDdRegressor).
//
// Rows are routed to a leaf; every grace period the leaf scores a binary
// split per feature by standard-deviation reduction (SDR) over bounded
// per-feature bin histograms, and accepts the best one through the
// Hoeffding-bound ratio test. Both children warm-start from the leaf's
// model, and inner nodes stop updating theirs. A Page-Hinkley test at every
// inner node on the row's path watches the leaf's error, and an alert
// deletes that node's subtree (the authors' second drift adjustment
// strategy).
//
// A target policy supplies only what the two learners do differently: the
// bin statistic whose standard deviation SDR reduces, the leaf model and
// its batch type, the drift signal, and which targets are usable. The core
// is written once and instantiated for ClassTarget and NumericTarget.
#ifndef DMT_TREES_FIMTDD_TREE_H_
#define DMT_TREES_FIMTDD_TREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/linear/glm.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/serial/archive.h"

namespace dmt::obs {
class TelemetryRegistry;
}  // namespace dmt::obs

namespace dmt::trees {

struct FimtDdConfig;
struct FimtDdRegressorConfig;

// The classification adaptation: the one-hot label is the multi-target SDR
// statistic, leaves are GLMs, and the drift signal is the leaf's 0/1 error.
struct ClassTarget {
  using Config = FimtDdConfig;
  using Model = linear::Glm;
  using Batch = dmt::Batch;
  using Label = int;
  static constexpr const char* kLabel = "FIMT-DD";

  struct Stat;   // per-class counts; SD is the summed Bernoulli SD
  struct Drift;  // passes the 0/1 error through
  static Model::Config ModelConfig(const Config& config);
  static bool Usable(const Config& config, Label y);
  static double Error(const Model& leaf, std::span<const double> x, Label y);
  // Statistic entries per histogram bin.
  static std::uint64_t StatWidth(const Config& config);
};

// The original FIMT-DD: numeric-target SDR, linear-regression leaves, and
// the absolute residual normalized by its running mean at each node.
struct NumericTarget {
  using Config = FimtDdRegressorConfig;
  using Model = linear::LinearRegressor;
  using Batch = linear::RegressionBatch;
  using Label = double;
  static constexpr const char* kLabel = "FIMT-DD-R";

  struct Stat;   // count, sum and sum of squares (TargetStats)
  struct Drift;  // running mean of the absolute residual
  static Model::Config ModelConfig(const Config& config);
  static bool Usable(const Config& config, Label y);
  static double Error(const Model& leaf, std::span<const double> x, Label y);
  static std::uint64_t StatWidth(const Config& config);
};

// The learners derive from FimtDdTree: its public part is the API both
// share; the protected part is what the adapters build on. The members are
// defined and explicitly instantiated for both targets in fimtdd_tree.cc,
// whose configs are complete only where the adapters define them.
template <typename Target>
class FimtDdTree {
 public:
  using Config = typename Target::Config;

  // Trains on one row. Rows with a non-finite feature or an unusable target
  // are skipped and leave no trace (a NaN would also make the bin index an
  // undefined float-to-int cast).
  void TrainInstance(std::span<const double> x, typename Target::Label y);

  // Every inner node has exactly two children.
  std::size_t NumInnerNodes() const { return NumLeaves() - 1; }
  std::size_t NumLeaves() const;
  std::size_t NumPrunes() const { return num_prunes_; }

 protected:
  // Builds the root, drawing its initial model weights from the seeded
  // engine.
  explicit FimtDdTree(const Config& config);
  ~FimtDdTree();

  // The model of the leaf responsible for `x`.
  const typename Target::Model& LeafModel(std::span<const double> x) const;

  // Caches the "fimtdd.*" counters and the "ph.resets" destination that
  // every node's Page-Hinkley test binds to (existing nodes by a tree walk,
  // later nodes at construction).
  void BindTelemetry(obs::TelemetryRegistry* registry);

  // --- Persistence ---------------------------------------------------------
  // SaveConfig writes the shared Config fields after the adapter's leading
  // ones (num_features, and num_classes for the classifier); LoadConfig
  // reads them back with range checks. SaveState writes the prune count,
  // the recursive node records and, last, the RNG engine: LoadState's node
  // construction draws model weights, so the engine is restored only after
  // the whole tree has been rebuilt. Malformed input throws
  // serial::SerialError prefixed with Target::kLabel.
  void SaveConfig(serial::Writer& writer) const;
  static void LoadConfig(serial::Reader& reader, Config* config);
  void SaveState(serial::Writer& writer) const;
  void LoadState(serial::Reader& reader);

  Config config_;

 private:
  struct Node;

  std::unique_ptr<Node> MakeNode();
  std::unique_ptr<Node> LoadNode(serial::Reader& reader, std::size_t depth);
  void AttemptSplit(Node* leaf);

  Rng rng_;
  std::unique_ptr<Node> root_;
  std::size_t num_prunes_ = 0;

  // Telemetry destinations, null until BindTelemetry.
  std::uint64_t* split_attempts_counter_ = nullptr;
  std::uint64_t* splits_counter_ = nullptr;
  std::uint64_t* prunes_counter_ = nullptr;
  std::uint64_t* ph_resets_counter_ = nullptr;
};

}  // namespace dmt::trees

#endif  // DMT_TREES_FIMTDD_TREE_H_
