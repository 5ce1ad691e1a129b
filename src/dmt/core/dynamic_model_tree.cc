#include "dmt/core/dynamic_model_tree.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "dmt/common/check.h"
#include "dmt/common/sanitize.h"
#include "dmt/serial/model_io.h"

namespace dmt::core {

DynamicModelTree::DynamicModelTree(const DmtConfig& config)
    : DmtTree(DmtTreeConfig::From(config),
              {.num_features = config.num_features,
               .num_classes = config.num_classes,
               .learning_rate = config.learning_rate}),
      config_(config) {
  DMT_CHECK(config.num_classes >= 2);
}

// --- Training ----------------------------------------------------------------

void DynamicModelTree::PartialFit(const Batch& batch) {
  DMT_CHECK(static_cast<int>(batch.num_features()) == config_.num_features);
  auto usable = [&](std::size_t i) {
    const int y = batch.label(i);
    return y >= 0 && y < config_.num_classes && RowIsFinite(batch.row(i));
  };
  std::size_t first_bad = 0;
  while (first_bad < batch.size() && usable(first_bad)) ++first_bad;
  if (first_bad == batch.size()) {
    DmtTree::PartialFit(batch);
    return;
  }
  // Contaminated batch: copy the usable rows aside (DESIGN.md Sec. 8).
  if (clean_batch_ == nullptr) {
    clean_batch_ = std::make_unique<Batch>(batch.num_features());
  }
  clean_batch_->clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (usable(i)) clean_batch_->Add(batch.row(i), batch.label(i));
  }
  if (!clean_batch_->empty()) DmtTree::PartialFit(*clean_batch_);
}

// --- Introspection ---------------------------------------------------------------

DynamicModelTree::RootDiagnostics DynamicModelTree::DiagnoseRoot() const {
  const Node& root_node = root();
  RootDiagnostics diagnostics;
  diagnostics.count = root_node.count;
  diagnostics.num_candidates = root_node.candidates.size();
  double gain = 0.0;
  if (BestCandidateOf(root_node, root_node.loss_sum, &gain) >= 0) {
    diagnostics.best_gain = gain;
  }
  return diagnostics;
}

std::size_t DynamicModelTree::NumSplits() const {
  // Paper Sec. VI-D2: inner nodes plus one split per model leaf (c splits
  // for multiclass leaf classifiers).
  const std::size_t per_leaf =
      config_.num_classes == 2 ? 1
                               : static_cast<std::size_t>(config_.num_classes);
  return NumInnerNodes() + NumLeaves() * per_leaf;
}

std::size_t DynamicModelTree::NumParameters() const {
  // 1 split value per inner node; m weights per class per leaf model
  // (binary leaves count m, paper Sec. VI-D2).
  const std::size_t per_leaf =
      static_cast<std::size_t>(config_.num_features) *
      (config_.num_classes == 2 ? 1 : config_.num_classes);
  return NumInnerNodes() + NumLeaves() * per_leaf;
}

// --- Persistence ---------------------------------------------------------------

void DynamicModelTree::SaveBody(serial::Writer& writer) const {
  writer.I32(config_.num_features);
  writer.I32(config_.num_classes);
  writer.F64(config_.learning_rate);
  SaveConfig(writer);
  SaveState(writer);
}

void DynamicModelTree::Save(std::ostream& out) const {
  serial::Writer writer(out);
  writer.Header(serial::kTagDmtClassifier);
  SaveBody(writer);
}

std::unique_ptr<DynamicModelTree> DynamicModelTree::LoadBody(
    serial::Reader& reader) {
  DmtConfig config;
  config.num_features = static_cast<int>(serial::CheckedRange(
      reader.I32(), 1, serial::kMaxFeatures, "DMT feature count"));
  config.num_classes = static_cast<int>(serial::CheckedRange(
      reader.I32(), 2, serial::kMaxClasses, "DMT class count"));
  serial::Check(static_cast<std::uint64_t>(config.num_features) *
                        static_cast<std::uint64_t>(config.num_classes) <=
                    static_cast<std::uint64_t>(serial::kMaxVector),
                "DMT model dimensions exceed the archive limit");
  config.learning_rate =
      serial::CheckedFinite(reader.F64(), "DMT learning rate");
  LoadTreeConfig(reader, "DMT", &config);
  auto tree = std::make_unique<DynamicModelTree>(config);
  tree->LoadState(reader, "DMT");
  return tree;
}

std::unique_ptr<DynamicModelTree> DynamicModelTree::Load(std::istream& in) {
  serial::Reader reader(in);
  reader.Header(serial::kTagDmtClassifier);
  return LoadBody(reader);
}

std::string DynamicModelTree::Describe(int max_weights_per_leaf) const {
  std::ostringstream out;
  auto walk = [&](auto&& self, const Node* node, std::string indent) -> void {
    if (!node->is_leaf()) {
      out << indent << "if x[" << node->split_feature
          << "] <= " << node->split_value << ":\n";
      self(self, node->left.get(), indent + "  ");
      out << indent << "else:\n";
      self(self, node->right.get(), indent + "  ");
      return;
    }
    out << indent << "leaf(n=" << node->count << "): ";
    // Largest-magnitude feature weights of the model (class 1 for binary,
    // the per-class blocks otherwise would be verbose, so class 1 is shown).
    const std::vector<double> weights =
        node->model.FeatureWeights(config_.num_classes == 2 ? 1 : 0);
    std::vector<int> idx(weights.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
    std::sort(idx.begin(), idx.end(), [&](int a, int b) {
      return std::abs(weights[a]) > std::abs(weights[b]);
    });
    const int shown = std::min<int>(max_weights_per_leaf,
                                    static_cast<int>(idx.size()));
    for (int i = 0; i < shown; ++i) {
      out << (i == 0 ? "" : ", ") << "w[" << idx[i] << "]=" << weights[idx[i]];
    }
    out << "\n";
  };
  walk(walk, &root(), "");
  return out.str();
}

}  // namespace dmt::core
