// appbench_selftest: checks of the benchmark's own parts, run before
// every measurement. Exit code 0 when every check passes.
//
//   * percentile and sample-count arithmetic, with +inf for lost packets
//   * the max_rate_kpps grid search on a synthetic monotone loss curve
//   * the oracle flagging a single flipped byte and a dropped datagram
//   * the tag surviving neutralization untouched on both data directions
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/neutralizer.hpp"
#include "net/arena.hpp"
#include "net/shim.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace appbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  LatencySummary s = summarize(v);
  check(s.samples == 1000 && s.infinite == 0, "1000 samples, none infinite");
  check(s.p50 == 500 && s.p99 == 990 && s.p999 == 999, "nearest-rank p50/p99/p99.9");
  check(std::abs(s.top_q - 0.99) < 1e-12 && s.top == 990,
        "top percentile leaves exactly ten samples beyond it");

  // Two lost packets in 100: p99 is a lost packet, p50 is not.
  std::vector<double> w;
  for (int i = 1; i <= 98; ++i) w.push_back(i);
  w.push_back(kInf);
  w.push_back(kInf);
  s = summarize(w);
  check(s.infinite == 2, "lost packets counted as infinite samples");
  check(s.p50 == 50, "p50 unaffected by two losses in 100");
  check(std::isinf(s.p99), "p99 is +inf when more than 1% is lost");
  check(std::abs(s.top_q - 0.9) < 1e-12 && s.top == 90,
        "top percentile of 100 samples is p90");

  // Two losses in 1000 stay beyond p99 but reach p99.9.
  v[998] = kInf;
  v[999] = kInf;
  s = summarize(v);
  check(s.p99 == 990 && std::isinf(s.p999), "two losses in 1000: p99.9 is +inf");

  std::vector<double> few = {3, 1, 2};
  s = summarize(few);
  check(s.top_q == 0 && std::isinf(s.top), "no top percentile below ten samples");
  check(median({4, 1, 3, 2}) == 2.5 && median({5, 1, 3}) == 3, "median");
}

void test_grid_search() {
  const std::vector<double> grid = rate_grid(60e3, 200e3, 16);
  check(grid.size() == 16 && grid.front() == 60e3 && grid.back() == 200e3,
        "grid spans high..over inclusive");
  for (std::size_t i = 1; i < grid.size(); ++i) {
    check(grid[i] > grid[i - 1], "grid is increasing");
  }
  // Synthetic monotone curve: loss is zero below a capacity, positive
  // above it. The search must find the last zero-loss grid point.
  for (double capacity = 30e3; capacity <= 260e3; capacity += 3.7e3) {
    int probes = 0;
    const auto loss = [&](double rate) {
      return rate <= capacity ? 0.0 : (rate - capacity) / rate;
    };
    RateSearch search(grid.size());
    while (!search.done()) {
      ++probes;
      search.report(loss(grid[search.next()]) == 0.0);
    }
    const long got = search.result();
    long want = -1;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (loss(grid[i]) == 0.0) want = static_cast<long>(i);
    }
    check(got == want, "grid search finds the highest zero-loss point at "
                       "capacity " + std::to_string(capacity));
    check(probes <= 5, "grid search of 16 points takes at most 5 probes");
  }
}

// Reference outputs of the first `n` slots of trial 1.
std::vector<nn::net::Packet> outputs(Workload& w, std::size_t n) {
  nn::core::Neutralizer box(w.config(), w.root_key());
  std::vector<nn::net::Packet> out;
  for (std::size_t s = 0; s < n; ++s) {
    auto o = box.process(w.make_input(1, s), 0);
    check(o.has_value(), "reference forwards slot " + std::to_string(s));
    if (o) out.push_back(std::move(*o));
  }
  return out;
}

void test_steady_rounds() {
  using V = std::vector<std::size_t>;
  check(steady_rounds({0.0, 0.01, 0.2, 0.04}, 0.05) == V{0, 1, 3},
        "rounds above the steal limit are left out");
  check(steady_rounds({0.3, 0.01, 0.2, 0.4, 0.1}, 0.05) == V{1, 2, 4},
        "in a steal burst the steadiest half (rounded up) is kept");
  check(steady_rounds({}, 0.05).empty(), "no rounds, none kept");
}

void test_oracle(Kind kind, const char* name) {
  Workload w(kind, 7);
  constexpr std::size_t kN = 24;
  const std::vector<nn::net::Packet> outs = outputs(w, kN);
  {
    TrialLedger clean(w, 1, kN, 0, 1e3);
    for (const auto& o : outs) clean.arrive(o.view(), 5'000);
    clean.finish();
    check(clean.delivered() == kN && clean.lost() == 0 && clean.wrong() == 0,
          std::string(name) + ": clean outputs all accepted");
  }
  {
    TrialLedger dropped(w, 1, kN, 0, 1e3);
    for (std::size_t i = 0; i < kN; ++i) {
      if (i != 5) dropped.arrive(outs[i].view(), 5'000);
    }
    dropped.finish();
    const std::vector<double> lat = dropped.latencies_us();
    check(dropped.lost() == 1 && dropped.wrong() == 0 && std::isinf(lat[5]) &&
              std::isfinite(lat[4]),
          std::string(name) + ": a dropped datagram is one +inf loss");
  }
  // Flip each byte of one output in turn: every flip must be flagged,
  // as a wrong output or as a loss of the slot it answered.
  const nn::net::Packet& victim = outs[3];
  for (std::size_t b = 0; b < victim.size(); ++b) {
    TrialLedger flipped(w, 1, kN, 0, 1e3);
    for (std::size_t i = 0; i < kN; ++i) {
      if (i == 3) {
        nn::net::Packet bad = victim;
        bad.bytes[b] ^= 0x01;
        flipped.arrive(bad.view(), 5'000);
      } else {
        flipped.arrive(outs[i].view(), 5'000);
      }
    }
    flipped.finish();
    check(flipped.wrong() + flipped.lost() > 0,
          std::string(name) + ": flipped byte " + std::to_string(b) +
              " is flagged");
  }
}

void test_tag_survives() {
  Workload w(Kind::kUdpImix, 11);
  nn::core::Neutralizer box(w.config(), w.root_key());
  nn::net::PacketArena arena;
  bool saw_forward = false;
  bool saw_return = false;
  std::vector<nn::net::Packet> batch;
  for (std::uint64_t s = 0; s < 64; ++s) {
    const nn::net::Packet in = w.make_input(9, s);
    const auto type = static_cast<nn::net::ShimType>(
        in.bytes[nn::net::kIpv4HeaderSize]);
    saw_forward |= type == nn::net::ShimType::kDataForward;
    saw_return |= type == nn::net::ShimType::kDataReturn;
    const auto out = box.process(nn::net::Packet(in), 0);
    check(out.has_value() && w.output_tag(out->view()) == make_tag(9, s),
          "tag survives process() on slot " + std::to_string(s));
    batch.push_back(in);
  }
  check(saw_forward && saw_return, "imix covers both data directions");
  const std::size_t kept = box.process_batch(batch, 0, &arena);
  check(kept == 64, "process_batch keeps every data packet");
  for (std::size_t s = 0; s < kept; ++s) {
    check(w.output_tag(batch[s].view()) == make_tag(9, s) &&
              w.output_matches(batch[s].view()),
          "tag survives process_batch() on slot " + std::to_string(s));
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_grid_search();
  test_steady_rounds();
  test_oracle(Kind::kUdpSmall, "udp_small");
  test_oracle(Kind::kUdpImix, "udp_imix");
  test_oracle(Kind::kUdpKeySetup, "udp_keysetup");
  test_tag_survives();
  if (g_failures != 0) {
    std::printf("appbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("appbench_selftest: all checks passed\n");
  return 0;
}
