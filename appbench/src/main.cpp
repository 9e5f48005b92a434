// appbench: the appliance benchmark, one workload per invocation.
//
//   appbench --workload udp_small --seed 1 --seconds 10 --trace 0
//            --low 20000 --high 60000 --over 200000 --p99-limit-us 5000
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// measures the per-layer metrics (counters from an untraced appliance
// run at the high and over rates, spans from the traced replay). The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 unless an output byte was wrong or the appliance failed.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "appliance.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace {

using namespace appbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double low = 0, high = 0, over = 0;  // offered rates, packets/s
  double p99_limit_us = 0;
};

// max_rate_kpps searches this many rates, geometric from high to over:
// about 7% apart on the UDP workloads, at most ceil(log2(24 + 1)) = 5
// probes.
constexpr std::size_t kGridPoints = 24;
// The untraced plan builds this many fresh appliances one after the
// other and measures each; every other one also makes one probe of the
// max_rate_kpps search.
constexpr std::size_t kRounds = 10;
constexpr std::size_t kProbeEvery = 2;
// A round during which the hypervisor took more than this share of the
// VM's CPU time (steal in /proc/stat) is left out of the metrics: on a
// shared host such bursts cut the UDP throughput by half or more.
constexpr double kStealLimit = 0.05;

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return std::nullopt;
    kv[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 1) % 2 != 0) return std::nullopt;
  try {
    a.workload = kv.at("workload");
    if (kv.count("seed")) a.seed = std::stoull(kv["seed"]);
    if (kv.count("seconds")) a.seconds = std::stod(kv["seconds"]);
    if (kv.count("trace")) a.trace = std::stoi(kv["trace"]);
    a.low = std::stod(kv.at("low"));
    a.high = std::stod(kv.at("high"));
    a.over = std::stod(kv.at("over"));
    a.p99_limit_us = std::stod(kv.at("p99-limit-us"));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (a.seconds <= 0 || a.low <= 0 || a.high <= a.low || a.over <= a.high ||
      (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

// Shortest round-trip text of a double: every digit the value has.
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// JSON has no infinity: a latency that is +inf (more than 1% or 50% of
// the packets lost) is reported as 1e9 us, worse than any real reading.
double finite(double v) { return std::isfinite(v) ? v : 1e9; }

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + items[i].first + "\": {\"value\": " +
             num(items[i].second.first) + ", \"unit\": \"" +
             items[i].second.second + "\"}";
    }
    return out + "}";
  }
};

void print_point(const PointResult& p) {
  std::printf(
      "point %-6s offered_kpps=%.2f offered=%llu delivered=%llu lost=%llu "
      "wrong=%llu unsent=%llu stray=%llu sink_drops=%llu "
      "delivered_kpps=%.2f p50_us=%.1f p99_us=%.1f lat.p999_us=%.1f "
      "lat.top=p%.4g:%.1fus lat.samples=%zu lat.inf=%zu gen.late_p99_us=%.1f%s\n",
      p.label.c_str(), p.offered_pps / 1e3,
      static_cast<unsigned long long>(p.offered),
      static_cast<unsigned long long>(p.delivered),
      static_cast<unsigned long long>(p.lost),
      static_cast<unsigned long long>(p.wrong),
      static_cast<unsigned long long>(p.unsent),
      static_cast<unsigned long long>(p.stray),
      static_cast<unsigned long long>(p.sink_drops), p.delivered_pps / 1e3,
      p.lat.p50, p.lat.p99, p.lat.p999, p.lat.top_q * 100, p.lat.top,
      p.lat.samples, p.lat.infinite, p.late_p99_us,
      p.late_p99_us > 100 ? " GENERATOR-BOUND" : "");
  std::fflush(stdout);
}

std::uint64_t handled_of(const nn::core::NeutralizerStats& s) {
  return s.key_setups + s.key_leases + s.data_forwarded + s.data_returned +
         s.setup_rate_limited + s.rejected;
}

// Median of one percentile over every window of the given trials.
double window_median(const std::vector<PointResult>& points,
                     double LatencySummary::*field) {
  std::vector<double> values;
  for (const auto& p : points) {
    for (const auto& w : p.windows) values.push_back(w.*field);
  }
  return median(values);
}

double window_median(const PointResult& p, double LatencySummary::*field) {
  return window_median(std::vector<PointResult>{p}, field);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

int run(const Args& args, Kind kind) {
  std::printf("box: %s\n", box_context().c_str());
  std::printf("workload: %s seed=%llu seconds=%s trace=%d low_kpps=%s "
              "high_kpps=%s over_kpps=%s p99_limit_us=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              num(args.seconds).c_str(), args.trace,
              num(args.low / 1e3).c_str(), num(args.high / 1e3).c_str(),
              num(args.over / 1e3).c_str(), num(args.p99_limit_us).c_str());
  std::fflush(stdout);

  const StealMeter steal;
  Workload workload(kind, args.seed);
  Appliance app(workload);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics m;
  const auto note = [&](const PointResult& p) {
    print_point(p);
    if (p.wrong != 0) correct = false;
  };

  if (args.trace == 0) {
    // Each round builds a fresh appliance, warms it up at the high rate
    // (discarded: its heap grows to the in-flight level here), measures
    // low, high and over, makes one probe of a max_rate_kpps search, and
    // tears it down. An appliance's speed depends on the allocator state
    // it happens to start in, so each round is one sample of it. The
    // latency metrics are medians over every window of every round, so
    // one stall of the box moves one window, not the metric. Whole-trial
    // tails are printed per point.
    //
    // A probe lasts 4.5 units (about 0.2 s at --seconds 3.4): long enough
    // that above capacity its queue outgrows the p99 limit. A shorter one
    // would pass rates the appliance cannot hold, since the socket buffer
    // absorbs the excess for a while.
    const double v =
        args.seconds / (5.0 * kRounds + 4.5 * (kRounds / kProbeEvery));
    const std::vector<double> grid =
        rate_grid(args.high, args.over, kGridPoints);
    RateSearch search(grid.size());
    std::vector<double> setups, steals;
    std::vector<PointResult> lows, highs, overs;
    double rss_mb = 0;
    for (std::size_t r = 0; r < kRounds; ++r) {
      const StealMeter round_steal;
      setups.push_back(app.start());
      note(app.run("warm", args.high, 1.0 * v));
      lows.push_back(app.run("low", args.low, 1.5 * v, 3));
      note(lows.back());
      highs.push_back(app.run("high", args.high, 1.5 * v, 3));
      note(highs.back());
      // Peak memory of one appliance below saturation. Later rounds
      // would add the allocator leftovers of the earlier ones (a user's
      // process runs one appliance), and above saturation the peak
      // depends on how far the backlog happened to grow.
      if (r == 0) rss_mb = peak_rss_mb();
      overs.push_back(app.run("over", args.over, 1.0 * v, 1, true));
      note(overs.back());
      if (r % kProbeEvery == 0 && !search.done()) {
        const PointResult p =
            app.run("grid", grid[search.next()], 4.5 * v, 5, true);
        note(p);
        search.report(p.lost == 0 && window_median(p, &LatencySummary::p99) <=
                                         args.p99_limit_us);
      }
      (void)app.stop();
      steals.push_back(round_steal.share_since());
    }
    // Losses and wrong bytes count in every round; the measurements come
    // from the rounds the hypervisor left alone. The max_rate_kpps
    // search spans rounds and keeps every probe.
    const std::vector<std::size_t> kept = steady_rounds(steals, kStealLimit);
    std::printf("rounds kept: %zu of %zu (steal share per round:", kept.size(),
                kRounds);
    for (double s : steals) std::printf(" %.3f", s);
    std::printf("; limit %s)\n", num(kStealLimit).c_str());
    const auto pick = [&](const auto& all) {
      std::remove_cvref_t<decltype(all)> out;
      for (std::size_t r : kept) out.push_back(all[r]);
      return out;
    };
    const std::vector<PointResult> kept_lows = pick(lows);
    const std::vector<PointResult> kept_highs = pick(highs);
    // No grid point met the limits: report one grid step below the grid.
    // max_rate_kpps is printed, not gated: each probe is a pass or fail
    // on one appliance, and the answer moves in whole grid steps.
    const double max_rate =
        search.result() >= 0 ? grid[static_cast<std::size_t>(search.result())]
                             : grid[0] * grid[0] / grid[1];

    std::uint64_t lost = 0;
    std::int64_t cpu_ns = 0;
    std::uint64_t high_delivered = 0;
    for (const auto* points : {&lows, &highs}) {
      for (const auto& p : *points) {
        attempted += p.offered;
        lost += p.lost;
      }
    }
    for (const auto& p : kept_highs) {
      cpu_ns += p.appliance_cpu_ns;
      high_delivered += p.delivered;
    }
    failed = lost;
    const double fail_frac = ratio(static_cast<double>(lost),
                                   static_cast<double>(attempted));
    // The p99s are diagnostics, not gated metrics: on a shared VM they sit
    // in the range of scheduler and host stalls and do not repeat from
    // run to run within any allowed bound.
    std::printf("low_p99_us=%s high_p99_us=%s (median of per-window p99; "
                "not gated)\n",
                num(window_median(kept_lows, &LatencySummary::p99)).c_str(),
                num(window_median(kept_highs, &LatencySummary::p99)).c_str());
    std::printf("max_rate_kpps=%s (not gated)\n", num(max_rate / 1e3).c_str());
    std::printf("setup_s samples:");
    for (double s : setups) std::printf(" %s", num(s).c_str());
    std::printf("\nfail_frac=%s (lost+rejected+wrong %llu of %llu offered at "
                "low and high)\n",
                num(fail_frac).c_str(), static_cast<unsigned long long>(lost),
                static_cast<unsigned long long>(attempted));
    std::vector<double> sat_pps, goodput;
    for (const auto& p : pick(overs)) {
      sat_pps.push_back(p.delivered_pps);
      goodput.push_back(p.goodput_mbps);
    }
    const double sat_kpps = median(sat_pps) / 1e3;
    if (workload.key_setup()) {
      std::printf(
          "paper-reference (informational, not a gate): sat_kpps=%.1f -> "
          "%.1f M sources per master-key hour; paper section 4: 24.4 kpps, "
          "88 M sources per hour\n",
          sat_kpps, sat_kpps * 3600.0 / 1e3);
    }
    m.add("setup_s", median(pick(setups)), "s");
    m.add("sat_kpps", sat_kpps, "kpps");
    m.add("low_p50_us",
          finite(window_median(kept_lows, &LatencySummary::p50)), "us");
    m.add("high_p50_us",
          finite(window_median(kept_highs, &LatencySummary::p50)), "us");
    m.add("delivered_frac", 1.0 - fail_frac, "ratio");
    m.add("goodput_mbps", median(goodput), "Mbit/s");
    m.add("cpu_us_per_pkt",
          ratio(static_cast<double>(cpu_ns) / 1e3,
                static_cast<double>(high_delivered)),
          "us");
    m.add("rss_mb", rss_mb, "MiB");
  } else {
    const double u = args.seconds / 10.0;  // time unit of the plan below
    (void)app.start();
    note(app.run("warm", args.low, 0.3 * u));
    const PointResult high = app.run("high", args.high, 2.0 * u);
    note(high);
    const PointResult over = app.run("over", args.over, 2.0 * u);
    note(over);
    const nn::core::NeutralizerStats core = app.stop();
    const TraceResult t = run_traced(workload, 5.0 * u);
    if (t.wrong != 0) correct = false;
    attempted = high.offered + t.packets;
    failed = high.lost + t.lost;
    std::printf("traced: packets=%llu lost=%llu wrong=%llu\n",
                static_cast<unsigned long long>(t.packets),
                static_cast<unsigned long long>(t.lost),
                static_cast<unsigned long long>(t.wrong));
    std::printf("ingest.kernel_drop_frac at high=%s\n",
                num(ratio(static_cast<double>(high.sent - high.datagrams),
                          static_cast<double>(high.sent)))
                    .c_str());

    const double hd = static_cast<double>(high.delivered);
    m.add("net.recv.ns_per_pkt", t.recv_ns, "ns");
    m.add("net.recv.allocs_per_call", t.recv_allocs_per_call, "count");
    m.add("net.recv.alloc_bytes_per_pkt", t.recv_alloc_bytes_per_pkt, "B");
    m.add("net.frame.ns_per_pkt", t.frame_ns, "ns");
    m.add("net.send.ns_per_pkt", t.send_ns, "ns");
    m.add("net.send.allocs_per_call", t.send_allocs_per_call, "count");
    m.add("runtime.submit.ns_per_pkt", t.submit_ns, "ns");
    m.add("runtime.flush.ns_per_pkt", t.flush_ns, "ns");
    m.add("runtime.pop.ns_per_pkt", t.pop_ns, "ns");
    m.add("runtime.handoff.ns_per_pkt",
          t.submit_ns + t.flush_ns + t.pop_ns - t.neutralize_ns, "ns");
    m.add("runtime.avg_batch",
          ratio(static_cast<double>(high.processed + over.processed),
                static_cast<double>(high.batches + over.batches)),
          "count");
    m.add("runtime.blocked_waits",
          static_cast<double>(high.blocked_waits + over.blocked_waits),
          "count");
    m.add("runtime.egress_dropped",
          static_cast<double>(high.egress_dropped + over.egress_dropped),
          "count");
    m.add("core.neutralize.ns_per_pkt", t.neutralize_ns, "ns");
    m.add("core.neutralize.allocs_per_pkt", t.neutralize_allocs_per_pkt,
          "count");
    m.add("core.rejected_frac",
          ratio(static_cast<double>(core.rejected),
                static_cast<double>(handled_of(core))),
          "ratio");
    m.add("crypto.derive.ns_per_pkt", t.derive_ns, "ns");
    m.add("crypto.addr.ns_per_pkt", t.addr_ns, "ns");
    m.add("crypto.rsa.ns_per_setup", t.rsa_ns_per_setup, "ns");
    m.add("ingest.kernel_drop_frac",
          ratio(static_cast<double>(over.sent - over.datagrams),
                static_cast<double>(over.sent)),
          "ratio");
    m.add("ingest.truncated", static_cast<double>(high.truncated + over.truncated),
          "count");
    m.add("ingest.runts", static_cast<double>(high.runts + over.runts), "count");
    m.add("egress.send_failures",
          static_cast<double>(high.send_failures + over.send_failures),
          "count");
    m.add("alloc.per_pkt",
          ratio(static_cast<double>(high.appliance_allocs.calls), hd), "count");
    m.add("alloc.bytes_per_pkt",
          ratio(static_cast<double>(high.appliance_allocs.bytes), hd), "B");
    m.add("busy.reader", over.busy_reader, "ratio");
    m.add("busy.worker", over.busy_worker, "ratio");
    m.add("busy.tx", over.busy_tx, "ratio");
    m.add("busy.gen", over.busy_gen, "ratio");
    m.add("busy.consumer", over.busy_consumer, "ratio");
    m.add("gen.late_p99_us", std::max(high.late_p99_us, over.late_p99_us),
          "us");
    m.add("ledger.ns_per_pkt", t.ledger_ns, "ns");
    m.add("ledger.coverage", t.coverage, "ratio");
    m.add("trace.overhead_frac", t.overhead_frac, "ratio");
  }

  std::printf("box.steal_frac=%s (share of CPU time the hypervisor took "
              "during this process)\n",
              num(steal.share_since()).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: appbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --low PPS --high PPS --over PPS "
                 "--p99-limit-us US\n");
    return 2;
  }
  const std::optional<Kind> kind = kind_from_name(args->workload);
  if (!kind) {
    std::fprintf(stderr, "appbench: unknown workload '%s'\n",
                 args->workload.c_str());
    return 2;
  }
  try {
    return run(*args, *kind);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "appbench: %s\n", e.what());
    return 1;
  }
}
