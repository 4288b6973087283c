// obs::Pmu — dependency-free Linux perf_event hardware counters.
//
// One counter group per thread (cycles leader; instructions; LLC read
// accesses/misses; stalled backend cycles), opened lazily via
// perf_event_open(2) the first time the thread arms a PmuScope, and read
// as one PERF_FORMAT_GROUP snapshot. Where the kernel grants userspace
// counter access (cap_user_rdpmc in each event's mmap page) the read is a
// seqlock'd rdpmc loop with no syscall; otherwise one read(2) on the group
// leader. Group reads carry time_enabled/time_running so multiplexed
// windows scale to estimates instead of silently under-counting.
//
// Degradation contract (ISSUE 9): LAMB_PMU=off, EPERM/EACCES from
// perf_event_paranoid, ENOENT on PMU-less VMs — any of these makes
// pmu_available() false after one cheap probe, every PmuScope inert (one
// relaxed load), and pmu_status() a human-readable reason. Nothing else in
// the process changes behaviour.
//
// Nesting: PmuScopes on one thread form a stack; counts are attributed
// EXCLUSIVELY — entering a child freezes the parent's accumulation,
// leaving the child resumes it — so the innermost scope owns its deltas
// deterministically (a kernel span inside a build span reports kernel
// work only, never double-counted into both).
#pragma once

#include <cstdint>
#include <string>

namespace lamb::obs {

/// Counter deltas attributed to one scope. Absent counters (a host without
/// an LLC event, say) stay zero; `valid` is false when no hardware (or
/// virtual test) counters backed the scope at all.
struct PmuSample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_loads = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t stalled_backend = 0;
  bool valid = false;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
  double llc_miss_rate() const {
    return llc_loads == 0 ? 0.0
                          : static_cast<double>(llc_misses) /
                                static_cast<double>(llc_loads);
  }
  PmuSample& operator+=(const PmuSample& o) {
    cycles += o.cycles;
    instructions += o.instructions;
    llc_loads += o.llc_loads;
    llc_misses += o.llc_misses;
    stalled_backend += o.stalled_backend;
    valid = valid || o.valid;
    return *this;
  }
};

/// Process-wide availability, decided once on first use (probe opens a
/// group on the calling thread). One relaxed atomic load afterwards.
bool pmu_available();

/// Why counters are (un)available — "hardware counters active (rdpmc)",
/// "disabled via LAMB_PMU=off", "perf_event_open failed: ... (check
/// /proc/sys/kernel/perf_event_paranoid)", ...
std::string pmu_status();

namespace detail {
/// One raw group read: the five counter values plus the group's
/// time_enabled/time_running (for multiplex scaling of deltas).
struct PmuCounts {
  std::uint64_t v[5] = {0, 0, 0, 0, 0};
  std::uint64_t enabled = 0;
  std::uint64_t running = 0;
};
}  // namespace detail

/// RAII exclusive-attribution scope. Default-constructed it is inert;
/// arm() starts counting (a no-op when the PMU is unavailable). finish()
/// — or the destructor — stops and returns the deltas attributed to this
/// scope, excluding any nested armed scopes. Scopes must nest LIFO on one
/// thread (they are stack objects; the type is move- and copy-proof).
class PmuScope {
 public:
  PmuScope() = default;
  explicit PmuScope(bool arm_now) {
    if (arm_now) {
      arm();
    }
  }
  ~PmuScope() {
    if (armed_) {
      finish();
    }
  }
  PmuScope(const PmuScope&) = delete;
  PmuScope& operator=(const PmuScope&) = delete;

  void arm();
  PmuSample finish();
  bool armed() const { return armed_; }

 private:
  detail::PmuCounts mark_;    ///< counters at the last (re)start
  PmuSample partial_;         ///< exclusive counts accumulated so far
  PmuScope* parent_ = nullptr;
  bool armed_ = false;
};

// ------------------------------------------------------------- test hooks
//
// obs_test drives both unavailability paths and deterministic nesting
// without real hardware. All three reset cached probe state and bump a
// generation so every thread's group is reopened on next use; call them
// only from single-threaded test setup.

/// Re-run the availability probe on next use (re-reads LAMB_PMU).
void pmu_reset_for_test();

/// errno_value != 0: every perf_event_open attempt fails as if the kernel
/// returned it (EPERM ~ perf_event_paranoid, ENOENT ~ no PMU). 0 restores
/// real opens. Implies pmu_reset_for_test().
void pmu_test_fail_open(int errno_value);

/// Install a virtual counter source: `fn()` feeds ALL five counters, the
/// PMU reports available, and scopes compute deltas from successive calls
/// — nesting arithmetic becomes exactly testable. nullptr uninstalls.
/// Implies pmu_reset_for_test().
void pmu_test_install_virtual(std::uint64_t (*fn)());

}  // namespace lamb::obs
