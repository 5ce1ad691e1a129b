// The Dynamic Model Tree (DMT) core -- the paper's contribution (Sections
// IV-V), shared by the classifier (DynamicModelTree) and the regressor
// (DmtRegressor).
//
// A model tree that maintains an incrementally trained simple model at
// EVERY node, leaf and inner alike. Structural updates are driven purely by
// the model's negative log-likelihood loss:
//
//  * Leaves split on the stored candidate with the largest loss-based gain,
//    Eq. (3); candidate losses are approximated by one warm-started gradient
//    step, Eqs. (6)-(7), so no candidate models are ever trained.
//  * Inner nodes keep learning and keep scoring candidates. A subtree is
//    replaced by a fresh split when Eq. (4) turns positive, or collapsed
//    into a leaf when Eq. (5) does -- this is how DMT adapts to concept
//    drift without any dedicated drift detector, and what yields the
//    consistency (Property 1 / Lemma 1) and minimality (Property 2 /
//    Lemma 2) guarantees.
//  * Robustness thresholds follow the AIC confidence test of Eq. (11):
//    a structural change must improve the loss by at least
//    (#params added) - log(epsilon) nats.
//
// Bounded memory: each node stores at most `max_candidates` candidate
// statistics (default 3m); per batch, at most a `replacement_rate` fraction
// of them may be replaced by fresh candidates with larger estimated gain
// (Sec. V-D).
//
// Window alignment note: statistics of a node are reset whenever its
// sub-structure changes (it splits, replaces its split, or its children are
// created), so the loss sums compared by Eqs. (4)-(5) cover comparable
// observation windows; deeper restructuring below an old inner node biases
// the comparison conservatively (see DESIGN.md).
//
// None of this depends on the model type, so DmtTree<Model, BatchT> is
// written once and instantiated for linear::Glm over Batch and for
// linear::LinearRegressor over linear::RegressionBatch. It trains only on
// batches whose rows are all usable: a NaN inside ComputeFeatureOrders'
// sort comparator would violate strict weak ordering (undefined behavior),
// so the adapters filter rows before calling PartialFit.
#ifndef DMT_CORE_DMT_TREE_H_
#define DMT_CORE_DMT_TREE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/core/candidate.h"
#include "dmt/core/candidate_update.h"
#include "dmt/linear/glm.h"
#include "dmt/linear/linear_regressor.h"
#include "dmt/serial/archive.h"

namespace dmt::core {

// The Algorithm-1 settings of the core. DmtConfig and DmtRegressorConfig
// carry these fields under the same names (DmtConfig documents them).
struct DmtTreeConfig {
  int num_features = 0;
  double gradient_step_size = 0.2;
  double epsilon = 1e-8;
  std::size_t max_candidates = 0;  // 0 -> 3 * num_features
  double replacement_rate = 0.5;
  std::size_t max_proposals_per_feature = 64;
  std::size_t gain_test_every = 1000;
  double gain_test_threshold = 50.0;
  std::size_t order_buckets = 256;
  bool candidate_grad_f32 = true;
  std::uint64_t seed = 42;

  template <typename Config>
  static DmtTreeConfig From(const Config& config) {
    return {.num_features = config.num_features,
            .gradient_step_size = config.gradient_step_size,
            .epsilon = config.epsilon,
            .max_candidates = config.max_candidates,
            .replacement_rate = config.replacement_rate,
            .max_proposals_per_feature = config.max_proposals_per_feature,
            .gain_test_every = config.gain_test_every,
            .gain_test_threshold = config.gain_test_threshold,
            .order_buckets = config.order_buckets,
            .candidate_grad_f32 = config.candidate_grad_f32,
            .seed = config.seed};
  }
};

// Reads the DmtTreeConfig fields after num_features, in DmtTree::SaveConfig
// order, into an adapter config. A hostile archive must throw where the
// constructor would DMT_CHECK. `label` ("DMT", "DMT-R") prefixes errors.
template <typename Config>
void LoadTreeConfig(serial::Reader& reader, const std::string& label,
                    Config* config) {
  auto what = [&](const char* field) { return label + " " + field; };
  config->gradient_step_size = serial::CheckedFinite(
      reader.F64(), what("gradient step size").c_str());
  config->epsilon = reader.F64();
  serial::Check(std::isfinite(config->epsilon) && config->epsilon > 0.0 &&
                    config->epsilon <= 1.0,
                what("epsilon out of range").c_str());
  config->max_candidates = reader.Size(std::size_t{1} << 62);
  config->replacement_rate = reader.F64();
  serial::Check(std::isfinite(config->replacement_rate) &&
                    config->replacement_rate >= 0.0 &&
                    config->replacement_rate <= 1.0,
                what("replacement rate out of range").c_str());
  config->max_proposals_per_feature = reader.Size(std::size_t{1} << 62);
  config->gain_test_every = reader.Size(std::size_t{1} << 62);
  serial::Check(config->gain_test_every >= 1,
                what("gain test period out of range").c_str());
  config->gain_test_threshold = serial::CheckedFinite(
      reader.F64(), what("gain test threshold").c_str());
  serial::Check(config->gain_test_threshold >= 0.0,
                what("gain test threshold out of range").c_str());
  if (reader.version() >= 3) {
    config->order_buckets = reader.Size(std::size_t{1} << 20);
    config->candidate_grad_f32 = reader.Bool();
  } else {
    // v2 archives predate the hot-path knobs: restore the exact-sort, f64
    // behavior of the build that wrote them, so training continues
    // identically.
    config->order_buckets = 0;
    config->candidate_grad_f32 = false;
  }
  config->seed = reader.U64();
}

// One structural change, kept in an audit log so that every model update is
// attributable to a loss change -- the paper's notion of interpretable
// online learning ("Why have you split this node at time step u?", Sec. I-A).
struct StructuralEvent {
  enum class Kind { kSplit, kReplaceSplit, kPruneToLeaf };
  Kind kind = Kind::kSplit;
  std::size_t time_step = 0;  // PartialFit invocation index
  int feature = -1;           // split feature involved (new split, if any)
  double value = 0.0;
  double gain = 0.0;       // realized loss gain, Eqs. (3)-(5)
  double threshold = 0.0;  // AIC threshold the gain had to clear
  std::size_t depth = 0;   // depth of the affected node
};

// The learners derive from DmtTree: its public part is the introspection
// API both share; the protected part is what the adapters build on.
template <typename Model, typename BatchT>
class DmtTree {
 public:
  // Caches raw counter pointers for structural events, gain-test outcomes
  // and candidate-store churn ("dmt.*" namespace; see obs/telemetry.h).
  void AttachTelemetry(obs::TelemetryRegistry* registry);

  // Every inner node has exactly two children.
  std::size_t NumInnerNodes() const { return NumLeaves() - 1; }
  std::size_t NumLeaves() const;
  std::size_t Depth() const;
  // Accumulated loss over all leaves (the tree loss of Lemma 1).
  double AccumulatedLeafLoss() const;
  std::size_t time_step() const { return time_step_; }

  // Structural audit log (the most recent kMaxEvents events are retained).
  const std::vector<StructuralEvent>& events() const { return events_; }
  std::size_t num_splits_performed() const { return splits_performed_; }
  std::size_t num_subtree_replacements() const { return replacements_; }
  std::size_t num_prunes() const { return prunes_; }

  // AIC-derived gain thresholds (Sec. V-C; Eq. 11 and its analogues).
  // Eqs. (4)/(5) replace the subtree's leaves by 2 (1) new models.
  double SplitThreshold() const;
  double ReplaceThreshold(std::size_t subtree_leaves) const {
    return ReductionThreshold(2.0, subtree_leaves);
  }
  double PruneThreshold(std::size_t subtree_leaves) const {
    return ReductionThreshold(1.0, subtree_leaves);
  }

 protected:
  struct Node {
    // Split predicate; split_feature < 0 marks a leaf.
    int split_feature = -1;
    double split_value = 0.0;
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;

    // The simple model, trained at every time step regardless of node type
    // (inner nodes keep learning -- Sec. V-D of the paper).
    Model model;

    // Accumulated node statistics (Algorithm 1, lines 1-3), covering the
    // window since the node's last structural change.
    double loss_sum = 0.0;
    std::vector<double> grad_sum;
    double count = 0.0;

    // Bounded split-candidate store (Sec. V-D), SoA layout.
    CandidateStore candidates;

    // Dirty-node scheduler state: samples and loss absorbed since this
    // node's last AIC evaluation (the deterministic schedule inputs; see
    // DmtConfig::gain_test_every / gain_test_threshold).
    double samples_since_test = 0.0;
    double loss_since_test = 0.0;

    Node(const typename Model::Config& model_config, Rng* rng, bool grad_f32)
        : model(model_config, rng),
          grad_sum(model.num_params(), 0.0),
          candidates(static_cast<std::size_t>(model.num_params()),
                     grad_f32) {}

    bool is_leaf() const { return split_feature < 0; }

    void ResetStats() {
      loss_sum = 0.0;
      std::fill(grad_sum.begin(), grad_sum.end(), 0.0);
      count = 0.0;
      candidates.Clear();
      samples_since_test = 0.0;
      loss_since_test = 0.0;
    }
  };

  // `model_config` configures every node's simple model; the root is built
  // (drawing its initial weights from the seeded engine) right away.
  DmtTree(const DmtTreeConfig& config,
          const typename Model::Config& model_config);
  ~DmtTree() = default;

  // One time step of Algorithm 1 on a batch of usable rows (see the file
  // comment). An empty batch still advances the time step.
  void PartialFit(const BatchT& batch);

  // The model of the leaf responsible for `x`.
  const Model& LeafModel(std::span<const double> x) const {
    const Node* node = root_.get();
    while (!node->is_leaf()) {
      node = x[node->split_feature] <= node->split_value ? node->left.get()
                                                         : node->right.get();
    }
    return node->model;
  }
  const Node& root() const { return *root_; }

  // Best stored candidate (row into the node's store, -1 if none) by gain
  // (3)/(4) against `reference_loss` (the node's own accumulated loss for
  // leaves; the subtree leaf-loss sum for inner nodes).
  int BestCandidateOf(const Node& node, double reference_loss,
                      double* best_gain) const {
    return BestCandidate(node.candidates, node.loss_sum, node.grad_sum,
                         node.count, reference_loss,
                         config_.gradient_step_size, best_gain);
  }

  // --- Persistence ----------------------------------------------------------
  // SaveConfig writes the DmtTreeConfig fields after num_features (read
  // back by LoadTreeConfig). SaveState writes the time step, the
  // structural counters, the recursive node records and, last, the RNG
  // engine: LoadState's node construction draws initial model weights, so
  // the engine is restored only after the whole tree has been rebuilt. The
  // audit log is not persisted. LoadState throws serial::SerialError on
  // malformed input; `label` prefixes its messages.
  void SaveConfig(serial::Writer& writer) const;
  void SaveState(serial::Writer& writer) const;
  void LoadState(serial::Reader& reader, const std::string& label);

 private:
  std::unique_ptr<Node> MakeLeaf(const Model* warm_start_from) {
    auto node = std::make_unique<Node>(model_config_, &rng_,
                                       config_.candidate_grad_f32);
    if (warm_start_from != nullptr) node->model.WarmStartFrom(*warm_start_from);
    return node;
  }
  // Bottom-up batch update (Algorithm 1 at every node on the paths). The
  // row span stays valid for the call's duration (it points into
  // scratch_.root_rows or a depth-indexed partition buffer).
  void UpdateNode(Node* node, const BatchT& batch,
                  std::span<const std::size_t> rows, std::size_t depth);
  // Two-phase statistics update (candidate_update.h engine): always
  // accumulates the model step, tallies and stored-candidate scatter, then
  // consults the dirty-node scheduler. Returns true when this node was
  // evaluated this batch (fresh proposals made, counters reset) -- the
  // caller runs the structural checks only then.
  bool UpdateStatistics(Node* node, const BatchT& batch,
                        std::span<const std::size_t> rows);
  double ReductionThreshold(double new_models,
                            std::size_t subtree_leaves) const;
  void CheckLeafSplit(Node* node, std::size_t depth);
  // Splits `node` on its stored candidate `best`; both children are
  // warm-started from the node's model.
  void SplitOn(Node* node, int best);
  void CheckInnerReplacement(Node* node, std::size_t depth);
  void RecordEvent(StructuralEvent event) {
    if (events_.size() >= kMaxEvents) {
      events_.erase(events_.begin(), events_.begin() + kMaxEvents / 2);
    }
    events_.push_back(event);
  }

  DmtTreeConfig config_;
  typename Model::Config model_config_;
  Rng rng_;
  int model_params_ = 0;  // k: free parameters of one simple model
  std::unique_ptr<Node> root_;
  TrainScratch scratch_;  // grow-only training buffers (zero-alloc steady state)
  std::size_t time_step_ = 0;
  std::vector<StructuralEvent> events_;
  std::size_t splits_performed_ = 0;
  std::size_t replacements_ = 0;
  std::size_t prunes_ = 0;

  // Telemetry destinations, all null until AttachTelemetry (the registry
  // must outlive this tree).
  struct Telemetry {
    std::uint64_t* splits = nullptr;
    std::uint64_t* replacements = nullptr;
    std::uint64_t* prunes = nullptr;
    std::uint64_t* gain_tests = nullptr;
    std::uint64_t* gain_tests_passed = nullptr;
    // Dirty-node scheduler outcomes: node evaluations run, node
    // evaluations deferred, and evaluations forced early by the loss
    // threshold (before the amortized schedule was due).
    std::uint64_t* gain_tests_run = nullptr;
    std::uint64_t* gain_tests_skipped = nullptr;
    std::uint64_t* dirty_nodes = nullptr;
    std::uint64_t* candidate_proposals = nullptr;
    std::uint64_t* candidate_appends = nullptr;
    std::uint64_t* candidate_evictions = nullptr;
    // Bucketed order-statistics engine: evaluation batches routed through
    // radix buckets, and the proposals they produced.
    std::uint64_t* bucket_evals = nullptr;
    std::uint64_t* bucket_proposals = nullptr;
    // Training phase timers (wall clock; excluded from the golden counter
    // surface): inner-node routing, model step + per-sample gradients,
    // skip-path stored scatter, and the evaluation-path gain battery.
    obs::PhaseTimer* phase_route = nullptr;
    obs::PhaseTimer* phase_model_step = nullptr;
    obs::PhaseTimer* phase_scatter = nullptr;
    obs::PhaseTimer* phase_gain_battery = nullptr;
  };
  Telemetry telemetry_;

  static constexpr std::size_t kMaxEvents = 1024;
};

extern template class DmtTree<linear::Glm, Batch>;
extern template class DmtTree<linear::LinearRegressor,
                              linear::RegressionBatch>;

}  // namespace dmt::core

#endif  // DMT_CORE_DMT_TREE_H_
