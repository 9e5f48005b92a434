// Percentile and rate-grid arithmetic of the appliance benchmark.
//
// Latency samples are microseconds; a packet that was lost, rejected or
// delivered with wrong bytes is a sample of +infinity, so it always
// misses any latency limit and pushes the tail up instead of vanishing
// from the distribution.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace appbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of ascending `sorted` for q in [0, 1]: the
/// value at rank ceil(q * n) (1-based), clamped to [1, n]. NaN when
/// `sorted` is empty.
[[nodiscard]] double percentile(std::span<const double> sorted, double q);

/// The tail summary the benchmark prints for one load point.
struct LatencySummary {
  std::size_t samples = 0;    ///< every offered packet, lost ones included
  std::size_t infinite = 0;   ///< lost, rejected or wrong packets
  double p50 = kInf;
  double p99 = kInf;
  double p999 = kInf;
  /// Highest percentile with at least ten samples beyond it:
  /// q = 1 - 10 / samples (0 when fewer than ten samples exist).
  double top_q = 0;
  double top = kInf;
};

/// Sorts `values` in place and summarises them.
[[nodiscard]] LatencySummary summarize(std::vector<double>& values);

/// `points` offered rates spaced geometrically from `lo` to `hi`, both
/// included (a single point is `lo`).
[[nodiscard]] std::vector<double> rate_grid(double lo, double hi,
                                            std::size_t points);

/// Binary search for the highest index i in [0, n) with pass(i) true,
/// assuming pass is monotone (true up to some index, false after), one
/// probe at a time: while !done(), probe next() and report() whether it
/// passed. Takes at most ceil(log2(n + 1)) probes.
class RateSearch {
 public:
  explicit RateSearch(std::size_t n) : hi_(static_cast<long>(n)) {}
  [[nodiscard]] bool done() const noexcept { return hi_ - lo_ <= 1; }
  [[nodiscard]] std::size_t next() const noexcept {
    return static_cast<std::size_t>(lo_ + (hi_ - lo_) / 2);
  }
  void report(bool passed) noexcept {
    (passed ? lo_ : hi_) = static_cast<long>(next());
  }
  /// The highest index known to pass; -1 when none does.
  [[nodiscard]] long result() const noexcept { return lo_; }

 private:
  long lo_ = -1;  // highest index known to pass
  long hi_;       // lowest index known to fail
};

/// Indices of the rounds whose steal share (hypervisor time ÷ CPU time)
/// is at most `limit`, ascending. When fewer than half the rounds pass,
/// the half (rounded up) with the least steal instead, so a run inside a
/// long steal burst still reports its steadiest rounds.
[[nodiscard]] std::vector<std::size_t> steady_rounds(
    const std::vector<double>& steal, double limit);

/// Median of `values` (by copy); NaN when empty.
[[nodiscard]] double median(std::vector<double> values);

}  // namespace appbench
