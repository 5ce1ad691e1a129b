#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/common/random.h"
#include "dmt/common/types.h"
#include "dmt/obs/telemetry.h"
#include "dmt/streams/sea.h"
#include "dmt/trees/efdt.h"
#include "dmt/trees/fimtdd.h"
#include "dmt/trees/hoeffding_adaptive.h"
#include "dmt/trees/observers.h"
#include "dmt/trees/split_criteria.h"
#include "dmt/trees/vfdt.h"

namespace dmt::trees {
namespace {

// A two-region concept: class depends only on x0 <= 0.5.
void FillAxisConcept(Rng* rng, Batch* batch, int n, double noise = 0.0) {
  for (int i = 0; i < n; ++i) {
    std::vector<double> x = {rng->Uniform(), rng->Uniform()};
    int y = x[0] <= 0.5 ? 0 : 1;
    if (noise > 0.0 && rng->Bernoulli(noise)) y = 1 - y;
    batch->Add(x, y);
  }
}

TEST(SplitCriteriaTest, HoeffdingBoundShrinksWithN) {
  const double b100 = HoeffdingBound(1.0, 1e-7, 100.0);
  const double b10000 = HoeffdingBound(1.0, 1e-7, 10000.0);
  EXPECT_GT(b100, b10000);
  EXPECT_NEAR(b10000, std::sqrt(std::log(1e7) / 20000.0), 1e-12);
}

TEST(SplitCriteriaTest, EntropyOfPureAndUniform) {
  std::vector<double> pure = {10.0, 0.0};
  std::vector<double> uniform = {5.0, 5.0};
  EXPECT_DOUBLE_EQ(Entropy(pure), 0.0);
  EXPECT_DOUBLE_EQ(Entropy(uniform), 1.0);
}

TEST(SplitCriteriaTest, InfoGainOfPerfectSplitIsParentEntropy) {
  std::vector<double> parent = {10.0, 10.0};
  std::vector<double> left = {10.0, 0.0};
  std::vector<double> right = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(InfoGain(parent, left, right), 1.0);
}

TEST(SplitCriteriaTest, StdDevReductionOfPerfectSplit) {
  TargetStats parent;
  TargetStats left;
  TargetStats right;
  for (int i = 0; i < 100; ++i) {
    parent.Add(0.0);
    parent.Add(1.0);
    left.Add(0.0);
    right.Add(1.0);
  }
  EXPECT_NEAR(StdDevReduction(parent, left, right), 0.5, 1e-9);
  EXPECT_NEAR(parent.StdDev(), 0.5, 1e-9);
}

TEST(NumericObserverTest, FindsSeparatingThreshold) {
  NumericObserver observer(2);
  Rng rng(1);
  std::vector<double> parent_counts(2, 0.0);
  for (int i = 0; i < 2000; ++i) {
    const int y = rng.Bernoulli(0.5) ? 1 : 0;
    const double v = y == 0 ? rng.Uniform(0.0, 0.4) : rng.Uniform(0.6, 1.0);
    observer.Add(v, y);
    parent_counts[y] += 1.0;
  }
  const SplitSuggestion s = observer.BestSplit(3, parent_counts);
  EXPECT_EQ(s.feature, 3);
  EXPECT_GT(s.merit, 0.8);
  EXPECT_GT(s.threshold, 0.3);
  EXPECT_LT(s.threshold, 0.7);
}

TEST(NumericObserverTest, CountsBelowMatchesEmpirical) {
  NumericObserver observer(2);
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) observer.Add(rng.Gaussian(0.5, 0.1), 0);
  const std::vector<double> below = observer.CountsBelow(0.5);
  EXPECT_NEAR(below[0], 2500.0, 150.0);
}

TEST(NominalObserverTest, PrefersInformativeValue) {
  NominalObserver observer(2);
  std::vector<double> parent(2, 0.0);
  for (int i = 0; i < 100; ++i) {
    observer.Add(1.0, 0);
    observer.Add(2.0, 1);
    observer.Add(3.0, i % 2);
    parent[0] += 1.0 + (i % 2 == 0 ? 1.0 : 0.0);
    parent[1] += 1.0 + (i % 2 == 1 ? 1.0 : 0.0);
  }
  const SplitSuggestion s = observer.BestSplit(0, parent);
  EXPECT_TRUE(s.is_equality);
  EXPECT_TRUE(s.threshold == 1.0 || s.threshold == 2.0);
  EXPECT_GT(s.merit, 0.0);
}

TEST(VfdtTest, StartsAsSingleLeaf) {
  Vfdt tree({.num_features = 2, .num_classes = 2});
  EXPECT_EQ(tree.NumInnerNodes(), 0u);
  EXPECT_EQ(tree.NumLeaves(), 1u);
  EXPECT_EQ(tree.NumSplits(), 0u);
}

TEST(VfdtTest, LearnsAxisAlignedConcept) {
  Vfdt tree({.num_features = 2, .num_classes = 2});
  Rng rng(3);
  Batch batch(2);
  FillAxisConcept(&rng, &batch, 5000);
  tree.PartialFit(batch);
  EXPECT_GE(tree.NumInnerNodes(), 1u);

  Batch test(2);
  FillAxisConcept(&rng, &test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 950);
}

TEST(VfdtTest, DoesNotSplitOnPureStream) {
  Vfdt tree({.num_features = 2, .num_classes = 2});
  Rng rng(4);
  Batch batch(2);
  for (int i = 0; i < 3000; ++i) {
    batch.Add(std::vector<double>{rng.Uniform(), rng.Uniform()}, 1);
  }
  tree.PartialFit(batch);
  EXPECT_EQ(tree.NumInnerNodes(), 0u);
}

TEST(VfdtTest, NbaLeavesBeatMajorityClassOnImbalancedOverlap) {
  // Informative feature, 50/50 classes: NB leaves should predict better
  // than a single majority leaf before any split happens.
  Vfdt nba({.num_features = 1,
            .num_classes = 2,
            .grace_period = 100000,  // never split: isolates leaf models
            .leaf_prediction = LeafPrediction::kNaiveBayesAdaptive});
  Rng rng(5);
  Batch batch(1);
  for (int i = 0; i < 3000; ++i) {
    const int y = rng.Bernoulli(0.5) ? 1 : 0;
    batch.Add(std::vector<double>{y == 0 ? rng.Gaussian(0.3, 0.1)
                                         : rng.Gaussian(0.7, 0.1)},
              y);
  }
  nba.PartialFit(batch);
  int correct = 0;
  for (int i = 0; i < 500; ++i) {
    const int y = rng.Bernoulli(0.5) ? 1 : 0;
    std::vector<double> x = {y == 0 ? rng.Gaussian(0.3, 0.1)
                                    : rng.Gaussian(0.7, 0.1)};
    correct += nba.Predict(x) == y;
  }
  EXPECT_GT(correct, 440);
}

TEST(VfdtTest, ComplexityCountingRules) {
  VfdtConfig config{.num_features = 4, .num_classes = 3};
  Vfdt mc(config);
  config.leaf_prediction = LeafPrediction::kNaiveBayesAdaptive;
  Vfdt nba(config);
  Rng rng(6);
  Batch batch(4);
  for (int i = 0; i < 4000; ++i) {
    std::vector<double> x = {rng.Uniform(), rng.Uniform(), rng.Uniform(),
                             rng.Uniform()};
    batch.Add(x, x[0] <= 0.33 ? 0 : (x[0] <= 0.66 ? 1 : 2));
  }
  mc.PartialFit(batch);
  nba.PartialFit(batch);
  // MC: splits == inner nodes; params == inner + leaves.
  EXPECT_EQ(mc.NumSplits(), mc.NumInnerNodes());
  EXPECT_EQ(mc.NumParameters(), mc.NumInnerNodes() + mc.NumLeaves());
  // NBA (3 classes): splits == inner + 3 * leaves; params add m per class.
  EXPECT_EQ(nba.NumSplits(), nba.NumInnerNodes() + 3 * nba.NumLeaves());
  EXPECT_EQ(nba.NumParameters(),
            nba.NumInnerNodes() + nba.NumLeaves() * 4 * 3);
}

TEST(VfdtTest, SubspaceRestrictsSplitFeatures) {
  // With subspace_size=1 and a concept on feature 0, some trees will be
  // forced to split elsewhere; here we only verify it still learns when the
  // subspace covers all features and stays deterministic under a fixed seed.
  Vfdt a({.num_features = 2, .num_classes = 2, .subspace_size = 2,
          .seed = 11});
  Vfdt b({.num_features = 2, .num_classes = 2, .subspace_size = 2,
          .seed = 11});
  Rng rng(7);
  Batch batch(2);
  FillAxisConcept(&rng, &batch, 3000);
  a.PartialFit(batch);
  b.PartialFit(batch);
  EXPECT_EQ(a.NumInnerNodes(), b.NumInnerNodes());
}

TEST(EfdtTest, SplitsFasterThanVfdtOnEasyConcept) {
  EfdtConfig efdt_config{.num_features = 2, .num_classes = 2};
  VfdtConfig vfdt_config{.num_features = 2, .num_classes = 2};
  Efdt efdt(efdt_config);
  Vfdt vfdt(vfdt_config);
  Rng rng(8);
  Batch batch(2);
  FillAxisConcept(&rng, &batch, 600);
  efdt.PartialFit(batch);
  vfdt.PartialFit(batch);
  // EFDT only needs to beat the null split, so it must have at least as
  // many splits this early.
  EXPECT_GE(efdt.NumInnerNodes(), vfdt.NumInnerNodes());
  EXPECT_GE(efdt.NumInnerNodes(), 1u);
}

TEST(EfdtTest, LearnsAxisConcept) {
  Efdt tree({.num_features = 2, .num_classes = 2});
  Rng rng(9);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  Batch test(2);
  FillAxisConcept(&rng, &test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 930);
}

TEST(EfdtTest, ReplacesSplitAfterConceptSwitch) {
  // Concept moves from feature 0 to feature 1; re-evaluation must let the
  // tree adapt so that accuracy on the new concept recovers.
  Efdt tree({.num_features = 2,
             .num_classes = 2,
             .reevaluation_period = 500});
  Rng rng(10);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  ASSERT_GE(tree.NumInnerNodes(), 1u);
  auto fill_feature1 = [&](Batch* batch, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch->Add(x, x[1] <= 0.5 ? 1 : 0);
    }
  };
  for (int b = 0; b < 30; ++b) {
    Batch batch(2);
    fill_feature1(&batch, 500);
    tree.PartialFit(batch);
  }
  Batch test(2);
  fill_feature1(&test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 800);
}

TEST(HatTest, LearnsAxisConcept) {
  HoeffdingAdaptiveTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(11);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  Batch test(2);
  FillAxisConcept(&rng, &test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 930);
}

TEST(HatTest, RecoversFromAbruptDrift) {
  HoeffdingAdaptiveTree tree({.num_features = 2, .num_classes = 2});
  Rng rng(12);
  for (int b = 0; b < 10; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  // Flip the concept.
  auto fill_flipped = [&](Batch* batch, int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch->Add(x, x[0] <= 0.5 ? 1 : 0);
    }
  };
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    fill_flipped(&batch, 500);
    tree.PartialFit(batch);
  }
  Batch test(2);
  fill_flipped(&test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 850);
}

TEST(FimtDdTest, LearnsAxisConceptWithModelLeaves) {
  FimtDd tree({.num_features = 2, .num_classes = 2});
  Rng rng(13);
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  Batch test(2);
  FillAxisConcept(&rng, &test, 1000);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += tree.Predict(test.row(i)) == test.label(i);
  }
  EXPECT_GT(correct, 900);
}

TEST(FimtDdTest, PageHinkleyPrunesAfterDrift) {
  FimtDd tree({.num_features = 2,
               .num_classes = 2,
               .page_hinkley = {.min_instances = 30,
                                .delta = 0.005,
                                .threshold = 10.0,
                                .alpha = 0.9999}});
  Rng rng(14);
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    FillAxisConcept(&rng, &batch, 500);
    tree.PartialFit(batch);
  }
  ASSERT_GE(tree.NumInnerNodes(), 1u);
  // Flip the concept; PH on subtree error should eventually prune.
  for (int b = 0; b < 20; ++b) {
    Batch batch(2);
    for (int i = 0; i < 500; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      batch.Add(x, x[0] <= 0.5 ? 1 : 0);
    }
    tree.PartialFit(batch);
  }
  EXPECT_GE(tree.NumPrunes(), 1u);
}

TEST(FimtDdTest, TelemetryMatchesStructuralCounters) {
  obs::TelemetryRegistry registry;
  FimtDd tree({.num_features = 2,
               .num_classes = 2,
               .page_hinkley = {.min_instances = 30,
                                .delta = 0.005,
                                .threshold = 10.0,
                                .alpha = 0.9999}});
  tree.AttachTelemetry(&registry);
  Rng rng(14);
  for (int b = 0; b < 40; ++b) {
    Batch batch(2);
    for (int i = 0; i < 500; ++i) {
      std::vector<double> x = {rng.Uniform(), rng.Uniform()};
      const bool left = x[0] <= 0.5;
      batch.Add(x, (b < 20) == left ? 0 : 1);
    }
    tree.PartialFit(batch);
  }
  const std::uint64_t attempts = *registry.Counter("fimtdd.split_attempts");
  const std::uint64_t splits = *registry.Counter("fimtdd.splits");
  EXPECT_GE(tree.NumPrunes(), 1u);
  EXPECT_EQ(*registry.Counter("fimtdd.prunes"), tree.NumPrunes());
  EXPECT_GE(attempts, splits);
  EXPECT_GE(splits, tree.NumInnerNodes());
  EXPECT_GT(tree.NumInnerNodes(), 0u);
  EXPECT_GT(*registry.Counter("ph.resets"), 0u);
}

TEST(FimtDdTest, ComplexityCountsModelLeaves) {
  FimtDd binary({.num_features = 3, .num_classes = 2});
  EXPECT_EQ(binary.NumSplits(), 1u);       // single model leaf
  EXPECT_EQ(binary.NumParameters(), 3u);   // m weights
  FimtDd multi({.num_features = 3, .num_classes = 5});
  EXPECT_EQ(multi.NumSplits(), 5u);        // c splits for one leaf
  EXPECT_EQ(multi.NumParameters(), 15u);   // m * c
}

TEST(TreesOnSeaTest, AllTreesReachReasonableAccuracyOnStationarySea) {
  streams::SeaConfig sea;
  sea.total_samples = 8000;
  sea.noise = 0.0;
  sea.drift_points = {};
  streams::SeaGenerator gen(sea);
  Batch batch(3);
  gen.FillBatch(8000, &batch);
  // Normalize to [0,1] as the harness would.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (double& v : batch.mutable_row(i)) v /= 10.0;
  }

  Vfdt vfdt({.num_features = 3, .num_classes = 2});
  Efdt efdt({.num_features = 3, .num_classes = 2});
  HoeffdingAdaptiveTree hat({.num_features = 3, .num_classes = 2});
  FimtDd fimtdd({.num_features = 3, .num_classes = 2});
  std::vector<Classifier*> models = {&vfdt, &efdt, &hat, &fimtdd};
  for (Classifier* model : models) model->PartialFit(batch);

  streams::SeaGenerator test_gen(
      {.drift_points = {}, .noise = 0.0, .total_samples = 2000, .seed = 99});
  Batch test(3);
  test_gen.FillBatch(2000, &test);
  for (std::size_t i = 0; i < test.size(); ++i) {
    for (double& v : test.mutable_row(i)) v /= 10.0;
  }
  for (Classifier* model : models) {
    int correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      correct += model->Predict(test.row(i)) == test.label(i);
    }
    EXPECT_GT(correct, 1600) << model->name();
  }
}

}  // namespace
}  // namespace dmt::trees
