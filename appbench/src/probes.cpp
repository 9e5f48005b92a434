#include "probes.hpp"

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "crypto/aes_backend.hpp"

#ifndef APPBENCH_BUILD_TYPE
#define APPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef APPBENCH_COMPILER
#define APPBENCH_COMPILER "unknown"
#endif

// Counting global operator new, the same idiom as bench/bench_control:
// every heap allocation in the process bumps a global pair of relaxed
// counters plus the allocating thread's own pair, so a stage's
// allocations can be read as a whole-process delta and the harness
// threads' own allocations subtracted.
namespace {
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};
thread_local std::uint64_t t_calls = 0;
thread_local std::uint64_t t_bytes = 0;

void count(std::size_t n) noexcept {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  ++t_calls;
  t_bytes += n;
}
}  // namespace

void* operator new(std::size_t n) {
  count(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count(n);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace appbench {

AllocCount process_allocs() noexcept {
  return {g_calls.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

AllocCount thread_allocs() noexcept { return {t_calls, t_bytes}; }

namespace {
std::int64_t clock_ns(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t realtime_ns() noexcept { return clock_ns(CLOCK_REALTIME); }
std::int64_t monotonic_ns() noexcept { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t thread_cpu_ns() noexcept {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t process_cpu_ns() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  return (us(ru.ru_utime) + us(ru.ru_stime)) * 1000;
}

double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> list_tasks() {
  std::vector<int> tids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir)) {
      if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
        tids.push_back(std::atoi(e->d_name));
      }
    }
    closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<int> new_tasks(const std::vector<int>& before,
                           const std::vector<int>& after) {
  std::vector<int> added;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(added));
  return added;
}

std::int64_t task_cpu_ns(int tid) {
  const std::string base = "/proc/self/task/" + std::to_string(tid);
  {
    std::ifstream in(base + "/schedstat");
    long long run_ns = 0;
    if (in >> run_ns) return run_ns;
  }
  std::ifstream in(base + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line (11 and 12 after "state").
  const auto close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::atoll(field.c_str());
    if (i == 13) stime = std::atoll(field.c_str());
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1'000'000'000LL / (hz > 0 ? hz : 100));
}

std::vector<std::int64_t> tasks_cpu_ns(const std::vector<int>& tids) {
  std::vector<std::int64_t> out;
  out.reserve(tids.size());
  for (int tid : tids) out.push_back(std::max<std::int64_t>(task_cpu_ns(tid), 0));
  return out;
}

bool pin_self(int cpu) noexcept {
  if (cpu < 0) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

namespace {
// Steal and total jiffies from the aggregate "cpu" line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  std::uint64_t v = 0;
  for (int field = 1; field <= 8 && in >> v; ++field) {
    total += v;
    if (field == 8) steal = v;
  }
  return {steal, total};
}
}  // namespace

StealMeter::StealMeter() { std::tie(steal_, total_) = cpu_jiffies(); }

double StealMeter::share_since() const {
  const auto [steal, total] = cpu_jiffies();
  return total > total_ ? static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

std::string box_context() {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(colon + 2);
        break;
      }
    }
  }
  utsname uts{};
  const std::string kernel =
      uname(&uts) == 0 ? std::string(uts.sysname) + " " + uts.release
                       : "unknown";
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << cpu
      << "\" kernel=\"" << kernel << "\" compiler=\"" << APPBENCH_COMPILER
      << "\" build=" << APPBENCH_BUILD_TYPE
      << " aes_backend=" << nn::crypto::active_backend().name;
  return out.str();
}

}  // namespace appbench
