// Kernel profiles on the host: benchmark the lamb::blas substrate's GEMM,
// SYRK and SYMM under the paper's protocol and print a Figure-1-style
// efficiency table for this machine (efficiency = rate / best observed
// GEMM rate).
//
// Usage: ./examples/kernel_profiles [--max-size=320] [--repetitions=3]
#include <cstdio>
#include <vector>

#include "model/kernel_call.hpp"
#include "model/measured_machine.hpp"
#include "perf/machine_info.hpp"
#include "support/cli.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  const support::Cli cli(argc, argv);
  const long long max_size = cli.get_int("max-size", 320);
  model::MeasuredMachineConfig cfg;
  cfg.protocol.repetitions = static_cast<int>(cli.get_int("repetitions", 3));
  cli.reject_unknown_flags();

  const perf::MachineInfo info = perf::query_machine_info();
  std::printf("host: %s\n", info.to_string().c_str());

  model::MeasuredMachine machine(cfg);
  const double peak = machine.peak_flops();
  std::printf("empirical peak (best GEMM rate): %.2f GFLOP/s\n\n",
              peak / 1e9);

  support::Table table({"size", "gemm GF/s", "gemm eff", "syrk GF/s",
                        "syrk eff", "symm GF/s", "symm eff"});
  for (long long s = 48; s <= max_size; s *= 2) {
    const auto n = static_cast<la::index_t>(s);
    const model::KernelCall calls[3] = {model::make_gemm(n, n, n),
                                        model::make_syrk(n, n),
                                        model::make_symm(n, n)};
    std::vector<std::string> row = {support::strf("%lld", s)};
    for (const auto& call : calls) {
      const double t = machine.time_call_isolated(call);
      const double rate = static_cast<double>(call.flops()) / t;
      row.push_back(support::strf("%.2f", rate / 1e9));
      row.push_back(support::format_percent(rate / peak, 0));
    }
    table.add_row(row);
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nLike the paper's Figure 1: efficiency ramps up with size, "
              "and SYRK/SYMM trail GEMM at small sizes.\n");
  return 0;
}
