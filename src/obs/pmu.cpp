#include "obs/pmu.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "support/str.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace lamb::obs {

namespace {

constexpr int kN = 5;  // cycles, instructions, llc_loads, llc_misses, stalled
constexpr int kCycles = 0;
constexpr int kInstructions = 1;
constexpr int kLlcLoads = 2;
constexpr int kLlcMisses = 3;
constexpr int kStalled = 4;

enum Mode : int {
  kUnprobed = 0,
  kHardware = 1,
  kVirtual = 2,
  kUnavailable = 3,
};

std::atomic<int> g_mode{kUnprobed};
/// Bumped by the test hooks; threads reopen their group when it moves.
std::atomic<std::uint64_t> g_generation{1};
std::atomic<std::uint64_t (*)()> g_virtual_fn{nullptr};
std::atomic<int> g_fail_errno{0};  ///< test hook: forced open failure

std::mutex g_probe_mutex;
std::string& status_string() {
  // Leaked like the tracer singleton: read at scrape time, possibly past
  // static destruction.
  static std::string* s = new std::string("unprobed");
  return *s;
}

#if defined(__linux__)

long sys_perf_event_open(perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  const int forced = g_fail_errno.load(std::memory_order_relaxed);
  if (forced != 0) {
    errno = forced;
    return -1;
  }
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

/// Per-thread counter group. Owned (and torn down) by the thread itself;
/// a generation bump from a test hook makes the next use reopen.
struct ThreadPmu {
  std::uint64_t generation = 0;
  int fds[kN] = {-1, -1, -1, -1, -1};
  perf_event_mmap_page* pages[kN] = {};
  int slot[kN] = {-1, -1, -1, -1, -1};  ///< index in the group-read values
  int n_values = 0;
  bool ok = false;
  bool rdpmc_all = false;

  void close_all() {
    for (int i = 0; i < kN; ++i) {
      if (pages[i] != nullptr) {
        ::munmap(pages[i], static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
        pages[i] = nullptr;
      }
      if (fds[i] >= 0) {
        ::close(fds[i]);
        fds[i] = -1;
      }
      slot[i] = -1;
    }
    n_values = 0;
    ok = false;
    rdpmc_all = false;
  }
  ~ThreadPmu() { close_all(); }
};

thread_local ThreadPmu t_pmu;

perf_event_attr make_attr(std::uint32_t type, std::uint64_t config,
                          bool leader) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  // exclude_kernel keeps the group openable under perf_event_paranoid <= 2
  // (the common default) without CAP_PERFMON; we attribute user-space
  // compute anyway.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.disabled = leader ? 1 : 0;  // members follow the leader's enable
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return attr;
}

int open_event(ThreadPmu& st, int which, std::uint32_t type,
               std::uint64_t config, int group_fd) {
  perf_event_attr attr = make_attr(type, config, group_fd == -1);
  const int fd = static_cast<int>(
      sys_perf_event_open(&attr, 0, -1, group_fd, 0));
  if (fd < 0) {
    return -1;
  }
  st.fds[which] = fd;
  st.slot[which] = st.n_values++;
  void* page = ::mmap(nullptr, static_cast<std::size_t>(
                                   ::sysconf(_SC_PAGESIZE)),
                      PROT_READ, MAP_SHARED, fd, 0);
  st.pages[which] =
      page == MAP_FAILED ? nullptr
                         : static_cast<perf_event_mmap_page*>(page);
  return fd;
}

constexpr std::uint64_t kLlcReadAccess =
    PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
    (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16);
constexpr std::uint64_t kLlcReadMiss =
    PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
    (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);

/// Open this thread's group. Cycles and instructions are mandatory (no
/// IPC, no PMU); the LLC pair and stalled-backend are best-effort.
bool open_thread(ThreadPmu& st, int& out_errno) {
  st.close_all();
  st.generation = g_generation.load(std::memory_order_acquire);
  const int leader = open_event(st, kCycles, PERF_TYPE_HARDWARE,
                                PERF_COUNT_HW_CPU_CYCLES, -1);
  if (leader < 0) {
    out_errno = errno;
    return false;
  }
  if (open_event(st, kInstructions, PERF_TYPE_HARDWARE,
                 PERF_COUNT_HW_INSTRUCTIONS, leader) < 0) {
    out_errno = errno;
    st.close_all();
    return false;
  }
  open_event(st, kLlcLoads, PERF_TYPE_HW_CACHE, kLlcReadAccess, leader);
  open_event(st, kLlcMisses, PERF_TYPE_HW_CACHE, kLlcReadMiss, leader);
  open_event(st, kStalled, PERF_TYPE_HARDWARE,
             PERF_COUNT_HW_STALLED_CYCLES_BACKEND, leader);
  // The LLC pair only makes sense together (a miss count without the
  // access count cannot form a rate), and closing one member mid-group
  // would desync our slot numbering from the kernel's group read layout —
  // so reopen the whole group from scratch without the pair.
  if ((st.fds[kLlcLoads] < 0) != (st.fds[kLlcMisses] < 0)) {
    const bool keep_stalled = st.fds[kStalled] >= 0;
    st.close_all();
    st.generation = g_generation.load(std::memory_order_acquire);
    const int lead2 = open_event(st, kCycles, PERF_TYPE_HARDWARE,
                                 PERF_COUNT_HW_CPU_CYCLES, -1);
    if (lead2 < 0 ||
        open_event(st, kInstructions, PERF_TYPE_HARDWARE,
                   PERF_COUNT_HW_INSTRUCTIONS, lead2) < 0) {
      out_errno = errno;
      st.close_all();
      return false;
    }
    if (keep_stalled) {
      open_event(st, kStalled, PERF_TYPE_HARDWARE,
                 PERF_COUNT_HW_STALLED_CYCLES_BACKEND, lead2);
    }
  }
  st.rdpmc_all = true;
  for (int i = 0; i < kN; ++i) {
    if (st.fds[i] >= 0 &&
        (st.pages[i] == nullptr || st.pages[i]->cap_user_rdpmc == 0)) {
      st.rdpmc_all = false;
    }
  }
  ::ioctl(st.fds[kCycles], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(st.fds[kCycles], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  st.ok = true;
  return true;
}

inline void compiler_barrier() { asm volatile("" ::: "memory"); }

#if defined(__x86_64__)
/// Seqlock'd userspace counter read (perf_event_open(2) man-page
/// protocol). False when the event is not currently scheduled on this
/// CPU (idx == 0) — caller falls back to the syscall read.
bool rdpmc_read(const volatile perf_event_mmap_page* pc, std::uint64_t& out) {
  for (;;) {
    const std::uint32_t seq = pc->lock;
    compiler_barrier();
    const std::uint32_t idx = pc->index;
    const std::int64_t offset = pc->offset;
    const std::uint32_t width = pc->pmc_width;
    if (pc->cap_user_rdpmc == 0 || idx == 0) {
      return false;
    }
    std::int64_t pmc =
        static_cast<std::int64_t>(__builtin_ia32_rdpmc(idx - 1));
    pmc <<= 64 - width;
    pmc >>= 64 - width;  // sign-extend the counter's active width
    const std::uint64_t count = static_cast<std::uint64_t>(offset + pmc);
    compiler_barrier();
    if (pc->lock == seq) {
      out = count;
      return true;
    }
  }
}
#endif  // __x86_64__

bool read_hardware(detail::PmuCounts& out) {
  ThreadPmu& st = t_pmu;
  const std::uint64_t generation =
      g_generation.load(std::memory_order_acquire);
  if (!st.ok || st.generation != generation) {
    int err = 0;
    if (!open_thread(st, err)) {
      return false;  // e.g. fd exhaustion on this thread only
    }
  }
#if defined(__x86_64__)
  if (st.rdpmc_all) {
    detail::PmuCounts fast;  // enabled/running 0: raw, currently-scheduled
    bool all = true;
    for (int i = 0; i < kN && all; ++i) {
      if (st.fds[i] >= 0) {
        all = rdpmc_read(st.pages[i], fast.v[i]);
      }
    }
    if (all) {
      out = fast;
      return true;
    }
  }
#endif
  std::uint64_t buf[3 + kN] = {};
  const ssize_t n = ::read(st.fds[kCycles], buf, sizeof(buf));
  if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t))) {
    return false;
  }
  out.enabled = buf[1];
  out.running = buf[2];
  for (int i = 0; i < kN; ++i) {
    if (st.slot[i] >= 0) {
      out.v[i] = buf[3 + st.slot[i]];
    }
  }
  return true;
}

#endif  // __linux__

bool env_disabled() {
  const char* env = std::getenv("LAMB_PMU");
  if (env == nullptr) {
    return false;
  }
  return std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
         std::strcmp(env, "false") == 0;
}

int probe_locked() {
  if (g_virtual_fn.load(std::memory_order_relaxed) != nullptr) {
    status_string() = "virtual test counters installed";
    return kVirtual;
  }
  if (env_disabled()) {
    status_string() = "disabled via LAMB_PMU=off";
    return kUnavailable;
  }
#if defined(__linux__)
  int err = 0;
  if (open_thread(t_pmu, err)) {
    status_string() = support::strf(
        "hardware counters active (%s read%s%s)",
        t_pmu.rdpmc_all ? "rdpmc" : "syscall",
        t_pmu.fds[kLlcLoads] >= 0 ? "" : ", no LLC events",
        t_pmu.fds[kStalled] >= 0 ? "" : ", no stalled-backend event");
    return kHardware;
  }
  status_string() = support::strf(
      "perf_event_open failed: %s (check /proc/sys/kernel/"
      "perf_event_paranoid, or set LAMB_PMU=off to silence)",
      std::strerror(err));
  return kUnavailable;
#else
  status_string() = "perf_event unavailable on this platform";
  return kUnavailable;
#endif
}

int probed_mode() {
  int mode = g_mode.load(std::memory_order_acquire);
  if (mode != kUnprobed) {
    return mode;
  }
  const std::lock_guard<std::mutex> lock(g_probe_mutex);
  mode = g_mode.load(std::memory_order_relaxed);
  if (mode == kUnprobed) {
    mode = probe_locked();
    g_mode.store(mode, std::memory_order_release);
  }
  return mode;
}

bool read_counts(detail::PmuCounts& out) {
  const int mode = probed_mode();
  if (mode == kVirtual) {
    std::uint64_t (*fn)() = g_virtual_fn.load(std::memory_order_relaxed);
    if (fn == nullptr) {
      return false;
    }
    const std::uint64_t v = fn();
    for (int i = 0; i < kN; ++i) {
      out.v[i] = v;
    }
    out.enabled = 0;
    out.running = 0;
    return true;
  }
#if defined(__linux__)
  if (mode == kHardware) {
    return read_hardware(out);
  }
#endif
  return false;
}

/// partial += (to - from), scaled by the group's enabled/running ratio
/// over the window (multiplexing insurance; the ratio is 1 when the group
/// was scheduled the whole time, and rdpmc reads carry 0/0 → raw).
void add_delta(PmuSample& into, const detail::PmuCounts& from,
               const detail::PmuCounts& to) {
  const std::uint64_t d_enabled = to.enabled - from.enabled;
  const std::uint64_t d_running = to.running - from.running;
  const double scale =
      (d_running != 0 && d_enabled != d_running)
          ? static_cast<double>(d_enabled) / static_cast<double>(d_running)
          : 1.0;
  const auto delta = [scale](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t raw = b >= a ? b - a : 0;
    return scale == 1.0
               ? raw
               : static_cast<std::uint64_t>(static_cast<double>(raw) * scale);
  };
  into.cycles += delta(from.v[kCycles], to.v[kCycles]);
  into.instructions += delta(from.v[kInstructions], to.v[kInstructions]);
  into.llc_loads += delta(from.v[kLlcLoads], to.v[kLlcLoads]);
  into.llc_misses += delta(from.v[kLlcMisses], to.v[kLlcMisses]);
  into.stalled_backend += delta(from.v[kStalled], to.v[kStalled]);
}

/// Innermost armed scope on this thread (exclusive-attribution stack).
thread_local PmuScope* t_top = nullptr;

}  // namespace

bool pmu_available() {
  const int mode = probed_mode();
  return mode == kHardware || mode == kVirtual;
}

std::string pmu_status() {
  probed_mode();
  const std::lock_guard<std::mutex> lock(g_probe_mutex);
  return status_string();
}

void PmuScope::arm() {
  if (armed_ || !pmu_available()) {
    return;
  }
  detail::PmuCounts now;
  if (!read_counts(now)) {
    return;
  }
  armed_ = true;
  parent_ = t_top;
  if (parent_ != nullptr && parent_->armed_) {
    // Freeze the parent: everything up to now is the parent's own work.
    add_delta(parent_->partial_, parent_->mark_, now);
  }
  mark_ = now;
  t_top = this;
}

PmuSample PmuScope::finish() {
  if (!armed_) {
    return partial_;
  }
  armed_ = false;
  detail::PmuCounts now;
  const bool ok = read_counts(now);
  t_top = parent_;
  if (ok) {
    add_delta(partial_, mark_, now);
    partial_.valid = true;
    if (parent_ != nullptr && parent_->armed_) {
      parent_->mark_ = now;  // the parent's own work resumes here
    }
  }
  parent_ = nullptr;
  return partial_;
}

void pmu_reset_for_test() {
  const std::lock_guard<std::mutex> lock(g_probe_mutex);
  g_mode.store(kUnprobed, std::memory_order_release);
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  status_string() = "unprobed";
}

void pmu_test_fail_open(int errno_value) {
  g_fail_errno.store(errno_value, std::memory_order_relaxed);
  pmu_reset_for_test();
}

void pmu_test_install_virtual(std::uint64_t (*fn)()) {
  g_virtual_fn.store(fn, std::memory_order_relaxed);
  pmu_reset_for_test();
}

}  // namespace lamb::obs
