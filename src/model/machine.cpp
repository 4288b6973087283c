#include "model/machine.hpp"

#include "support/check.hpp"

namespace lamb::model {

std::vector<double> MachineModel::time_steps(const Algorithm& alg) {
  std::vector<double> times(alg.steps().size());
  time_steps_into(alg, times);
  return times;
}

double MachineModel::time_algorithm(const Algorithm& alg) {
  double total = 0.0;
  for (double t : time_steps(alg)) {
    total += t;
  }
  return total;
}

double MachineModel::predict_time_from_benchmarks(const Algorithm& alg) {
  double total = 0.0;
  for (const Step& s : alg.steps()) {
    total += time_call_isolated(s.call);
  }
  return total;
}

double MachineModel::algorithm_efficiency(const Algorithm& alg) {
  const double t = time_algorithm(alg);
  LAMB_CHECK(t > 0.0, "algorithm time must be positive");
  return static_cast<double>(alg.flops()) / (t * peak_flops());
}

}  // namespace lamb::model
