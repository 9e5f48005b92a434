// Outside-in counters of the appliance benchmark: a counting global
// operator new, per-thread CPU time read from /proc, process CPU and
// peak RSS from getrusage, and the box context every result carries.
// None of them needs a hook inside the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace appbench {

/// Heap allocations made through operator new.
struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  AllocCount operator-(const AllocCount& o) const noexcept {
    return {calls - o.calls, bytes - o.bytes};
  }
};

/// Whole-process totals since start.
[[nodiscard]] AllocCount process_allocs() noexcept;
/// Totals of the calling thread since it started.
[[nodiscard]] AllocCount thread_allocs() noexcept;

[[nodiscard]] std::int64_t realtime_ns() noexcept;   // CLOCK_REALTIME
[[nodiscard]] std::int64_t monotonic_ns() noexcept;  // CLOCK_MONOTONIC
/// CPU time of the calling thread.
[[nodiscard]] std::int64_t thread_cpu_ns() noexcept;
/// User + system CPU time of the whole process (getrusage).
[[nodiscard]] std::int64_t process_cpu_ns() noexcept;
/// Peak resident set size of the process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb() noexcept;

/// Kernel thread ids of this process (/proc/self/task).
[[nodiscard]] std::vector<int> list_tasks();
/// Ids in `after` that are not in `before`: the threads a component
/// started between the two listings.
[[nodiscard]] std::vector<int> new_tasks(const std::vector<int>& before,
                                         const std::vector<int>& after);
/// CPU time a thread of this process has used, from
/// /proc/self/task/<tid>/schedstat (ns), falling back to utime + stime
/// of /proc/self/task/<tid>/stat. -1 once the thread is gone.
[[nodiscard]] std::int64_t task_cpu_ns(int tid);
/// task_cpu_ns of each of `tids`; a gone thread reads 0.
[[nodiscard]] std::vector<std::int64_t> tasks_cpu_ns(const std::vector<int>& tids);

/// Pins the calling thread to `cpu` (no-op when cpu < 0).
bool pin_self(int cpu) noexcept;

/// Share of all CPU time that /proc/stat counts as steal (time the
/// hypervisor ran something else on this VM's CPUs) since construction.
class StealMeter {
 public:
  StealMeter();
  [[nodiscard]] double share_since() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

/// "nproc=4 cpu=... kernel=... compiler=... build=... aes_backend=...".
[[nodiscard]] std::string box_context();

}  // namespace appbench
