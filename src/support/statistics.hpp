// Small-sample statistics used by the measurement protocol and the
// experiment reports (medians of repetitions, quantiles of score
// distributions, histogram binning for the thickness plots).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace lamb::support {

/// Median of a sample (copies, then median_in_place). Requires non-empty
/// input.
double median(std::span<const double> xs);

/// Median of a sample, reordering it instead of copying (std::nth_element):
/// the middle order statistic, or 0.5 * (lo + hi) of the two middle ones
/// for an even size. Requires non-empty input.
double median_in_place(std::span<double> xs);

/// The 29 comparators of a sorting network for ten values, in eight layers
/// of independent exchanges: exchange(i, j), i < j, must leave the smaller
/// value at position i and the larger at j. The zero-one principle proves
/// the network sorts: support_test runs all 1,024 zero-one inputs. Forced
/// inline, with an inlined exchange every index is a constant, so the
/// values stay in registers whatever their type: median_of_ten runs it on
/// doubles, the simulated machine's vector noise on eight lanes at once.
template <typename Exchange>
[[gnu::always_inline]] inline void sort_ten_network(Exchange&& exchange) {
  exchange(0, 8); exchange(1, 9); exchange(2, 7); exchange(3, 5);
  exchange(4, 6);
  exchange(0, 2); exchange(1, 4); exchange(5, 8); exchange(7, 9);
  exchange(0, 3); exchange(2, 4); exchange(5, 7); exchange(6, 9);
  exchange(0, 1); exchange(3, 6); exchange(8, 9);
  exchange(1, 5); exchange(2, 3); exchange(4, 8); exchange(6, 7);
  exchange(1, 2); exchange(3, 5); exchange(4, 6); exchange(7, 8);
  exchange(2, 3); exchange(4, 5); exchange(6, 7);
  exchange(3, 4); exchange(5, 6);
}

/// Median of exactly ten values, 0.5 * (lo + hi) of the two middle ones:
/// the simulated machine draws ten repetitions of every kernel call it
/// times. The values pass through sort_ten_network as std::min/std::max
/// pairs, so no branch depends on the data; inlined, the values stay in
/// registers, and the compiler drops every comparator that cannot reach
/// the two middle outputs. Without NaN or signed zeros, any network that
/// sorts yields the same two middle values, so this equals
/// median_in_place() bit for bit. Forced inline: called, the array would
/// pass through the stack.
[[gnu::always_inline]] inline double median_of_ten(std::array<double, 10> v) {
  sort_ten_network([&v](std::size_t i, std::size_t j) {
    const double a = v[i];
    const double b = v[j];
    v[i] = std::min(a, b);
    v[j] = std::max(a, b);
  });
  return 0.5 * (v[4] + v[5]);
}

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
