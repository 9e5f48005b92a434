#include "stats.hpp"

#include <algorithm>

namespace appbench {

double percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps q * n = 990.0000000001 from rounding up a rank.
  double rank = std::ceil(q * n - 1e-9);
  rank = std::clamp(rank, 1.0, n);
  return sorted[static_cast<std::size_t>(rank) - 1];
}

LatencySummary summarize(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  LatencySummary s;
  s.samples = values.size();
  s.infinite = static_cast<std::size_t>(
      std::count(values.begin(), values.end(), kInf));
  if (values.empty()) return s;
  s.p50 = percentile(values, 0.50);
  s.p99 = percentile(values, 0.99);
  s.p999 = percentile(values, 0.999);
  if (values.size() >= 10) {
    s.top_q = 1.0 - 10.0 / static_cast<double>(values.size());
    s.top = percentile(values, s.top_q);
  }
  return s;
}

std::vector<double> rate_grid(double lo, double hi, std::size_t points) {
  std::vector<double> grid;
  if (points == 0) return grid;
  grid.reserve(points);
  if (points == 1) {
    grid.push_back(lo);
    return grid;
  }
  const double step = std::pow(hi / lo, 1.0 / static_cast<double>(points - 1));
  for (std::size_t i = 0; i < points; ++i) {
    grid.push_back(i + 1 == points ? hi
                                   : lo * std::pow(step, static_cast<double>(i)));
  }
  return grid;
}

std::vector<std::size_t> steady_rounds(const std::vector<double>& steal,
                                       double limit) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  std::size_t keep = 0;
  while (keep < order.size() && steal[order[keep]] <= limit) ++keep;
  keep = std::max(keep, (order.size() + 1) / 2);
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace appbench
