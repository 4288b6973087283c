#include "model/machine.hpp"

#include "support/check.hpp"

namespace lamb::model {

std::vector<double> MachineModel::time_steps(const Algorithm& alg) {
  std::vector<double> times(alg.steps().size());
  time_steps_into(alg, times);
  return times;
}

void MachineModel::time_set_into(std::span<const Algorithm> algs,
                                 std::span<double> out) {
  std::size_t offset = 0;
  for (const Algorithm& alg : algs) {
    LAMB_CHECK(offset + alg.steps().size() <= out.size(),
               "time_set_into: one time per step");
    time_steps_into(alg, out.subspan(offset, alg.steps().size()));
    offset += alg.steps().size();
  }
  LAMB_CHECK(offset == out.size(), "time_set_into: one time per step");
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
