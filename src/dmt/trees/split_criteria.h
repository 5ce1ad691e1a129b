// Split criteria shared by the Hoeffding-tree family: the Hoeffding bound,
// information gain over class distributions, and standard deviation
// reduction (FIMT-DD's criterion) over numeric targets.
#ifndef DMT_TREES_SPLIT_CRITERIA_H_
#define DMT_TREES_SPLIT_CRITERIA_H_

#include <span>
#include <vector>

namespace dmt::trees {

// Hoeffding bound: with probability 1-delta the true mean of a random
// variable with range R lies within epsilon of the empirical mean of n
// observations (paper Sec. I-B; Domingos & Hulten 2000).
double HoeffdingBound(double range, double delta, double n);

// Entropy of an unnormalized class-count distribution (bits).
double Entropy(std::span<const double> class_counts);

// Information gain of a binary partition given unnormalized class counts.
double InfoGain(std::span<const double> parent, std::span<const double> left,
                std::span<const double> right);

// Sufficient statistics (count, sum, sum of squares) of a numeric target.
struct TargetStats {
  double n = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void Add(double y, double weight = 1.0) {
    n += weight;
    sum += weight * y;
    sum_sq += weight * y * y;
  }
  void Merge(const TargetStats& other) {
    n += other.n;
    sum += other.sum;
    sum_sq += other.sum_sq;
  }
  double StdDev() const;
};

// Standard deviation reduction of a binary split:
//   sd(parent) - (n_l/n) sd(left) - (n_r/n) sd(right),
// for any statistic with a count `n` and a StdDev(): TargetStats, or the
// per-class counts of FIMT-DD's classification adaptation.
template <typename Stats>
double StdDevReduction(const Stats& parent, const Stats& left,
                       const Stats& right) {
  if (parent.n <= 0.0) return 0.0;
  return parent.StdDev() - (left.n / parent.n) * left.StdDev() -
         (right.n / parent.n) * right.StdDev();
}

}  // namespace dmt::trees

#endif  // DMT_TREES_SPLIT_CRITERIA_H_
