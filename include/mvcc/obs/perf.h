// Linux perf_event hardware counters (cycles, instructions,
// cache-misses, branch-misses), reported through the obs registry.
//
// Software metrics say what the system did; hardware counters say what it
// cost the machine — IPC and cache behavior are where the functional
// tree's pointer-chasing and the batching writer's bulk inserts actually
// differ. A PerfCounters instance opens one counting fd per event via
// perf_event_open(2) with inherit=1, so threads SPAWNED AFTER the open
// (each bench cell's workers) are aggregated into the parent's count;
// read() and report() sum over the whole tree of threads.
//
// Degradation is graceful and silent by design: perf_event_open commonly
// fails in containers and CI (EACCES under perf_event_paranoid, ENOSYS in
// seccomp sandboxes, and the header may not even exist off-Linux). Every
// failure path leaves the counter closed: available() is false, read()
// returns zeros, report() emits nothing — never an error, never a crash.
// PerfCell opens counters only under obs::enabled() (MVCC_STATS=1, see
// gate.h), so the default run does not even attempt the syscall.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "mvcc/obs/gate.h"
#include "mvcc/obs/registry.h"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define MVCC_HAVE_PERF_EVENT 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#endif

namespace mvcc::obs {

class PerfCounters {
 public:
  // The fixed event set, in reading order.
  static constexpr int kEvents = 4;
  static constexpr const char* kNames[kEvents] = {
      "cycles", "instructions", "cache_misses", "branch_misses"};

  struct Reading {
    std::uint64_t value[kEvents] = {0, 0, 0, 0};
    bool valid[kEvents] = {false, false, false, false};
  };

  // Opens the counters (enabled immediately). `open` = false skips the
  // syscalls entirely — the test seam for the unavailable path, and what a
  // failing perf_event_open degrades to.
  explicit PerfCounters(bool open = true) {
    for (int i = 0; i < kEvents; ++i) fds_[i] = -1;
#if defined(MVCC_HAVE_PERF_EVENT)
    if (!open) return;
    static constexpr std::uint64_t kConfigs[kEvents] = {
        PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
        PERF_COUNT_HW_CACHE_MISSES, PERF_COUNT_HW_BRANCH_MISSES};
    for (int i = 0; i < kEvents; ++i) {
      perf_event_attr attr;
      std::memset(&attr, 0, sizeof(attr));
      attr.type = PERF_TYPE_HARDWARE;
      attr.size = sizeof(attr);
      attr.config = kConfigs[i];
      attr.disabled = 0;
      attr.inherit = 1;  // aggregate threads spawned after this open
      attr.exclude_kernel = 1;
      attr.exclude_hv = 1;
      // pid=0, cpu=-1: this process (and, via inherit, its future
      // children) on any CPU. EACCES/ENOSYS/EPERM all land in fd == -1.
      fds_[i] = static_cast<int>(::syscall(SYS_perf_event_open, &attr, 0, -1,
                                           -1, 0ul));
    }
#else
    (void)open;
#endif
  }

  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  ~PerfCounters() {
#if defined(MVCC_HAVE_PERF_EVENT)
    for (int i = 0; i < kEvents; ++i) {
      if (fds_[i] >= 0) ::close(fds_[i]);
    }
#endif
  }

  // True when at least one counter opened.
  bool available() const {
    for (int i = 0; i < kEvents; ++i) {
      if (fds_[i] >= 0) return true;
    }
    return false;
  }

  void start() {
#if defined(MVCC_HAVE_PERF_EVENT)
    for (int i = 0; i < kEvents; ++i) {
      if (fds_[i] >= 0) {
        ::ioctl(fds_[i], PERF_EVENT_IOC_RESET, 0);
        ::ioctl(fds_[i], PERF_EVENT_IOC_ENABLE, 0);
      }
    }
#endif
  }

  void stop() {
#if defined(MVCC_HAVE_PERF_EVENT)
    for (int i = 0; i < kEvents; ++i) {
      if (fds_[i] >= 0) ::ioctl(fds_[i], PERF_EVENT_IOC_DISABLE, 0);
    }
#endif
  }

  // Current values; a counter that failed to open (or whose read fails)
  // reads back invalid/zero.
  Reading read() const {
    Reading r;
#if defined(MVCC_HAVE_PERF_EVENT)
    for (int i = 0; i < kEvents; ++i) {
      if (fds_[i] < 0) continue;
      std::uint64_t v = 0;
      if (::read(fds_[i], &v, sizeof(v)) == sizeof(v)) {
        r.value[i] = v;
        r.valid[i] = true;
      }
    }
#endif
    return r;
  }

  // Publishes the current values as registry gauges named
  // perf/<label>/<event> (perf/<event> for an empty label), skipping
  // counters that never opened. A no-op when nothing is available, so CI
  // containers emit no misleading zeros.
  void report(const std::string& label) const {
    const Reading r = read();
    const std::string base =
        label.empty() ? std::string("perf/") : "perf/" + label + "/";
    for (int i = 0; i < kEvents; ++i) {
      if (r.valid[i]) {
        registry().gauge(base + kNames[i]).set(
            static_cast<std::int64_t>(r.value[i]));
      }
    }
  }

 private:
  int fds_[kEvents];
};

// Per-cell RAII: opens the counters when obs is enabled, reports them
// under perf/<label>/ on destruction. Construct BEFORE spawning the cell's
// worker threads (inherit only covers threads created after the open).
class PerfCell {
 public:
  explicit PerfCell(std::string label) : label_(std::move(label)) {
    if (enabled()) {
      pc_ = std::make_unique<PerfCounters>();
      pc_->start();
    }
  }

  PerfCell(const PerfCell&) = delete;
  PerfCell& operator=(const PerfCell&) = delete;

  ~PerfCell() {
    if (pc_ != nullptr) {
      pc_->stop();
      pc_->report(label_);
    }
  }

 private:
  std::string label_;
  std::unique_ptr<PerfCounters> pc_;
};

}  // namespace mvcc::obs
