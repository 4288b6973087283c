#include "support/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace lamb::support {

double median(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  return median_in_place(v);
}

double median_in_place(std::span<double> v) {
  LAMB_CHECK(!v.empty(), "median of empty sample");
  const std::size_t n = v.size();
  const std::size_t mid = n / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  if (n % 2 == 1) {
    return v[mid];
  }
  const double hi = v[mid];
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double mean(std::span<const double> xs) {
  LAMB_CHECK(!xs.empty(), "mean of empty sample");
  double s = 0.0;
  for (double x : xs) {
    s += x;
  }
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) {
    return 0.0;
  }
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) {
    s += (x - m) * (x - m);
  }
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double quantile(std::span<const double> xs, double q) {
  LAMB_CHECK(!xs.empty(), "quantile of empty sample");
  LAMB_CHECK(q >= 0.0 && q <= 1.0, "quantile out of range");
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    return v.front();
  }
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= v.size()) {
    return v.back();
  }
  return v[i] * (1.0 - frac) + v[i + 1] * frac;
}

double min_value(std::span<const double> xs) {
  LAMB_CHECK(!xs.empty(), "min of empty sample");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  LAMB_CHECK(!xs.empty(), "max of empty sample");
  return *std::max_element(xs.begin(), xs.end());
}

std::vector<std::size_t> argmin_set(std::span<const double> xs,
                                    double rel_tol) {
  LAMB_CHECK(!xs.empty(), "argmin_set of empty sample");
  LAMB_CHECK(rel_tol >= 0.0, "argmin_set: negative tolerance");
  const double lo = min_value(xs);
  const double cutoff = lo + std::abs(lo) * rel_tol;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] <= cutoff) {
      out.push_back(i);
    }
  }
  return out;
}

std::size_t Histogram::total() const {
  std::size_t t = 0;
  for (std::size_t c : counts) {
    t += c;
  }
  return t;
}

Histogram make_histogram(std::span<const double> xs, double lo, double hi,
                         std::size_t bins) {
  LAMB_CHECK(bins > 0, "histogram needs at least one bin");
  LAMB_CHECK(hi > lo, "histogram range must be non-empty");
  Histogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : xs) {
    auto idx = static_cast<std::ptrdiff_t>((x - lo) / width);
    idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                     static_cast<std::ptrdiff_t>(bins) - 1);
    ++h.counts[static_cast<std::size_t>(idx)];
  }
  return h;
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
}

double RunningStats::mean() const {
  LAMB_CHECK(n_ > 0, "mean of empty accumulator");
  return sum_ / static_cast<double>(n_);
}

double RunningStats::min() const {
  LAMB_CHECK(n_ > 0, "min of empty accumulator");
  return min_;
}

double RunningStats::max() const {
  LAMB_CHECK(n_ > 0, "max of empty accumulator");
  return max_;
}

}  // namespace lamb::support
