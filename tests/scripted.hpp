// Test doubles for the experiment drivers: a one-dimensional expression
// family with two algorithms, and a machine whose anomaly pattern along the
// line is fully scripted. The cheap algorithm (k = 10) performs half the
// FLOPs of the expensive one (k = 20); the machine makes the cheap algorithm
// slow inside a configurable window, creating an exact, known anomaly region.
#pragma once

#include <functional>
#include <set>
#include <span>

#include "expr/family.hpp"
#include "la/generators.hpp"
#include "model/machine.hpp"

namespace lamb::testing {

class ScriptedFamily final : public expr::ExpressionFamily {
 public:
  std::string name() const override { return "scripted"; }
  int dimension_count() const override { return 1; }

  void bind(const expr::Instance& dims,
            std::vector<model::Algorithm>& out) const override {
    const la::index_t d = dims.at(0);
    out.clear();
    {
      model::Algorithm cheap("cheap");
      const int a = cheap.add_external(d, 10, "A");
      const int b = cheap.add_external(10, d, "B");
      cheap.add_gemm(a, b);
      out.push_back(std::move(cheap));
    }
    {
      model::Algorithm expensive("expensive");
      const int a = expensive.add_external(d, 20, "A");
      const int b = expensive.add_external(20, d, "B");
      expensive.add_gemm(a, b);
      out.push_back(std::move(expensive));
    }
  }

  std::vector<la::Matrix> make_externals(const expr::Instance& dims,
                                         support::Rng& rng) const override {
    const la::index_t d = dims.at(0);
    std::vector<la::Matrix> out;
    out.push_back(la::random_matrix(d, 10, rng));
    out.push_back(la::random_matrix(10, d, rng));
    return out;
  }
};

/// Machine with a scripted anomaly window [window_lo, window_hi]: inside it
/// the cheap algorithm takes `window_cheap_seconds` (2 s: a 50% time score)
/// vs the expensive algorithm's 1 s; outside, the cheap algorithm wins.
/// Coordinates in `holes` behave as non-anomalous even inside the window.
class ScriptedMachine final : public model::MachineModel {
 public:
  int window_lo = 200;
  int window_hi = 400;
  /// Between 1 s and 1 / 0.95 s the expensive algorithm is fastest inside
  /// the window without the time score passing the 5% threshold.
  double window_cheap_seconds = 2.0;
  std::set<int> holes;
  /// What breakpoints() reports.
  std::vector<int> kernel_breakpoints;
  /// When set, isolated benchmarks see this window instead (lets tests
  /// script divergence between Experiment 2 truth and Experiment 3
  /// prediction).
  int isolated_window_lo = -1;
  int isolated_window_hi = -1;

  std::string name() const override { return "scripted"; }
  double peak_flops() const override { return 1.0e9; }
  /// Scripted timings are pure functions of the call: thread-safe.
  bool concurrent_timing_safe() const override { return true; }

  /// Every scripted algorithm is one GEMM.
  void time_steps_into(const model::Algorithm& alg,
                       std::span<double> out) override {
    out[0] = time_for(alg.steps().at(0).call, window_lo, window_hi, true);
  }

  std::vector<int> breakpoints() const override {
    return kernel_breakpoints;
  }

  double time_call_isolated(const model::KernelCall& call) override {
    const int lo = isolated_window_lo >= 0 ? isolated_window_lo : window_lo;
    const int hi = isolated_window_hi >= 0 ? isolated_window_hi : window_hi;
    return time_for(call, lo, hi, false);
  }

 private:
  double time_for(const model::KernelCall& call, int lo, int hi,
                  bool respect_holes) const {
    const int d = static_cast<int>(call.m);
    const bool cheap = call.k == 10;
    bool anomalous_zone = d >= lo && d <= hi;
    if (respect_holes && holes.count(d) > 0) {
      anomalous_zone = false;
    }
    if (cheap) {
      return anomalous_zone ? window_cheap_seconds : 1.0;
    }
    return anomalous_zone ? 1.0 : 1.5;
  }
};

}  // namespace lamb::testing
