#include "perf/machine_info.hpp"

#include <unistd.h>

#include <algorithm>
#include <thread>

#include "blas/gemm.hpp"
#include "la/generators.hpp"
#include "perf/timer.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace lamb::perf {

namespace {

std::size_t sysconf_or(long name, std::size_t fallback) {
#ifdef _SC_LEVEL1_DCACHE_SIZE
  const long v = ::sysconf(static_cast<int>(name));
  if (v > 0) {
    return static_cast<std::size_t>(v);
  }
#else
  (void)name;
#endif
  return fallback;
}

}  // namespace

std::string MachineInfo::to_string() const {
  return support::strf(
      "cores=%u L1=%zuKiB L2=%zuKiB LLC=%zuMiB", logical_cores,
      l1_bytes >> 10, l2_bytes >> 10, llc_bytes >> 20);
}

MachineInfo query_machine_info() {
  MachineInfo info;
  info.logical_cores = std::max(1u, std::thread::hardware_concurrency());
#ifdef _SC_LEVEL1_DCACHE_SIZE
  info.l1_bytes = sysconf_or(_SC_LEVEL1_DCACHE_SIZE, info.l1_bytes);
  info.l2_bytes = sysconf_or(_SC_LEVEL2_CACHE_SIZE, info.l2_bytes);
  info.llc_bytes = sysconf_or(_SC_LEVEL3_CACHE_SIZE, info.llc_bytes);
  if (info.llc_bytes == 0) {
    info.llc_bytes = std::max<std::size_t>(info.l2_bytes, 8u << 20);
  }
#endif
  return info;
}

double estimate_peak_flops() {
  support::Rng rng(42);
  double best = 0.0;
  for (const la::index_t n : {192, 256, 320}) {
    la::Matrix a = la::random_matrix(n, n, rng);
    la::Matrix b = la::random_matrix(n, n, rng);
    la::Matrix c(n, n);
    // Warm up once, then take the best of three timed runs.
    blas::matmul(a.view(), b.view(), c.view());
    for (int rep = 0; rep < 3; ++rep) {
      Timer t;
      blas::matmul(a.view(), b.view(), c.view());
      const double dt = t.elapsed();
      const double flops = 2.0 * static_cast<double>(n) *
                           static_cast<double>(n) * static_cast<double>(n);
      best = std::max(best, flops / dt);
    }
  }
  return best;
}

}  // namespace lamb::perf
