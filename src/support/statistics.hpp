// Small-sample statistics used by the measurement protocol and the
// experiment reports (medians of repetitions, quantiles of score
// distributions, histogram binning for the thickness plots).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace lamb::support {

/// Median of a sample (copies, then median_in_place). Requires non-empty
/// input.
double median(std::span<const double> xs);

/// Median of a sample, reordering it instead of copying: up to 32 values
/// are sorted by a branchless insertion sort, longer samples partially
/// sorted by std::nth_element. Either way the result is the middle order
/// statistic, or 0.5 * (lo + hi) of the two middle ones for an even size.
/// Requires non-empty input.
double median_in_place(std::span<double> xs);

/// Arithmetic mean. Requires non-empty input.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
double stddev(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0, 1]. Requires non-empty input.
double quantile(std::span<const double> xs, double q);

double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// Indices of all elements within rel_tol of the minimum (the "argmin set").
/// With rel_tol == 0 this is the set of exact minimizers.
std::vector<std::size_t> argmin_set(std::span<const double> xs,
                                    double rel_tol = 0.0);

/// Fixed-width histogram of `xs` over [lo, hi] with `bins` bins; values
/// outside the range are clamped into the first/last bin.
struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::size_t> counts;

  std::size_t total() const;
};

Histogram make_histogram(std::span<const double> xs, double lo, double hi,
                         std::size_t bins);

/// Online summary accumulator (count/mean/min/max) for streaming reports.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace lamb::support
