#include "appliance.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace appbench {

namespace runtime = nn::runtime;

namespace {

constexpr std::size_t kBatch = 64;
constexpr std::size_t kSinkSlot = 2048;  // > largest output (1500 B)
constexpr std::size_t kCtrlSlot =
    CMSG_SPACE(sizeof(timespec)) + CMSG_SPACE(sizeof(std::uint32_t));
constexpr std::uint32_t kProbeTrial = 0;  // measured trials count from 1
constexpr std::int64_t kMs = 1'000'000;
// While some handed-over slot has not come out, the pipe counts as
// empty after this many consecutive empty polls (100 us apart).
// Counting polls, not wall time, keeps a stall of the whole box from
// ending the wait early: the poller stalls with the appliance.
constexpr int kQuietPolls = 1500;          // about 0.17 s
constexpr int kQuietPollsSaturating = 450;  // about 50 ms; losses expected
constexpr std::int64_t kDrainCapNs = 3000 * kMs;
constexpr std::int64_t kProbeTimeoutNs = 5000 * kMs;
constexpr std::int64_t kMaxHoldNs = 20'000;     // generator batching bound
constexpr std::int64_t kDrainEveryNs = 50'000;  // sink drain period

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

void nap_us(long us) noexcept {
  const timespec ts{0, us * 1000};
  nanosleep(&ts, nullptr);
}

double busiest(const std::vector<std::int64_t>& before,
               const std::vector<std::int64_t>& after, std::int64_t wall) {
  double best = 0;
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    best = std::max(best, static_cast<double>(after[i] - before[i]) /
                              static_cast<double>(wall));
  }
  return best;
}

}  // namespace

runtime::RuntimeConfig appliance_runtime_config() {
  runtime::RuntimeConfig cfg;
  cfg.egress = runtime::EgressMode::kForward;
  return cfg;
}

struct Appliance::Snapshot {
  std::int64_t wall = 0;
  std::vector<std::int64_t> reader, worker, tx;
  runtime::WorkerCounters rt;
  runtime::UdpQueueStats in;
  runtime::UdpEgressStats eg;
};

Sender::Sender(const Workload& workload)
    : workload_(workload), socket_(nn::net::UdpSocket::open()) {
  if (!socket_.valid()) {
    throw std::runtime_error("generator socket: " + socket_.error());
  }
  socket_.set_send_buffer(4 << 20);
  stage_.resize(kSendBatch * workload_.max_input_bytes());
}

std::size_t Sender::send(std::uint32_t trial, std::uint64_t first,
                         std::size_t count, std::uint16_t port) {
  mmsghdr msgs[kSendBatch];
  iovec iovs[kSendBatch];
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(port);
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const std::size_t slot = workload_.max_input_bytes();
  count = std::min(count, kSendBatch);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint8_t* buf = stage_.data() + i * slot;
    iovs[i].iov_base = buf;
    iovs[i].iov_len = workload_.write_input(trial, first + i, buf);
    msgs[i] = mmsghdr{};
    msgs[i].msg_hdr.msg_name = &to;
    msgs[i].msg_hdr.msg_namelen = sizeof(to);
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  std::size_t done = 0;
  while (done < count) {
    const int k = sendmmsg(socket_.fd(), msgs + done,
                           static_cast<unsigned>(count - done), 0);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) break;
    done += static_cast<std::size_t>(k);
  }
  return done;
}

Sink::Sink() : socket_(nn::net::UdpSocket::bind_loopback(0, false)) {
  if (!socket_.valid()) throw std::runtime_error("sink: " + socket_.error());
  socket_.set_recv_buffer(8 << 20);
  const int one = 1;
  if (setsockopt(socket_.fd(), SOL_SOCKET, SO_TIMESTAMPNS, &one,
                 sizeof(one)) != 0 ||
      setsockopt(socket_.fd(), SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one)) !=
          0) {
    throw std::runtime_error("sink: SO_TIMESTAMPNS/SO_RXQ_OVFL refused");
  }
  bufs_.resize(kBatch * kSinkSlot);
  ctrl_.resize(kBatch * kCtrlSlot);
}

std::size_t Sink::drain(TrialLedger* ledger) {
  mmsghdr msgs[kBatch];
  iovec iovs[kBatch];
  for (std::size_t i = 0; i < kBatch; ++i) {
    iovs[i].iov_base = bufs_.data() + i * kSinkSlot;
    iovs[i].iov_len = kSinkSlot;
    msgs[i] = mmsghdr{};
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_control = ctrl_.data() + i * kCtrlSlot;
    msgs[i].msg_hdr.msg_controllen = kCtrlSlot;
  }
  const int n = recvmmsg(socket_.fd(), msgs, kBatch, MSG_DONTWAIT, nullptr);
  if (n <= 0) return 0;
  for (int i = 0; i < n; ++i) {
    msghdr& h = msgs[i].msg_hdr;
    std::int64_t ts = -1;
    for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c)) {
      if (c->cmsg_level != SOL_SOCKET) continue;
      if (c->cmsg_type == SCM_TIMESTAMPNS) {
        timespec t{};
        std::memcpy(&t, CMSG_DATA(c), sizeof(t));
        ts = static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
      } else if (c->cmsg_type == SO_RXQ_OVFL) {
        std::uint32_t drops = 0;
        std::memcpy(&drops, CMSG_DATA(c), sizeof(drops));
        drops_ = std::max(drops_, drops);
      }
    }
    if (ts < 0) ts = realtime_ns();
    // A clipped datagram keeps its clipped length and fails the oracle.
    const std::size_t len = std::min<std::size_t>(msgs[i].msg_len, kSinkSlot);
    if (ledger != nullptr) {
      ledger->arrive(
          std::span<const std::uint8_t>(
              static_cast<const std::uint8_t*>(iovs[i].iov_base), len),
          ts);
    }
  }
  return static_cast<std::size_t>(n);
}

Appliance::Appliance(Workload& workload) : workload_(workload) {
  const runtime::RuntimeConfig cfg = appliance_runtime_config();
  const std::size_t workers = workload_.workers();
  if (workload_.udp()) {
    // The generator takes the core after worker, reader and transmit.
    gen_cpu_ = runtime::placement_cpu_for_egress(cfg, 1, workers, 1);
    sender_ = std::make_unique<Sender>(workload_);
    sink_ = std::make_unique<Sink>();
  } else {
    // Generator in the ingress slot, consumer in the transmit slot.
    gen_cpu_ = runtime::placement_cpu_for_ingress(cfg, 0, workers);
    consumer_cpu_ = runtime::placement_cpu_for_egress(cfg, 0, workers, 1);
  }
  pin_self(gen_cpu_);
}

Appliance::~Appliance() { (void)stop(); }

double Appliance::start() {
  const std::int64_t t0 = monotonic_ns();
  std::vector<int> before = list_tasks();
  runtime_ = std::make_unique<runtime::ShardRuntime>(
      workload_.workers(), workload_.config(), workload_.root_key(),
      appliance_runtime_config());
  std::vector<int> after = list_tasks();
  worker_tids_ = new_tasks(before, after);
  if (workload_.udp()) {
    runtime::UdpEgressConfig ecfg;
    ecfg.dest_port = sink_->port();
    egress_ = std::make_unique<runtime::UdpEgressor>(*runtime_, ecfg);
    before = after;
    if (!egress_->start()) {
      throw std::runtime_error("egress start: " + egress_->error());
    }
    after = list_tasks();
    tx_tids_ = new_tasks(before, after);
    ingest_ = std::make_unique<runtime::UdpIngestor>(*runtime_);
    before = after;
    if (!ingest_->start()) {
      throw std::runtime_error("ingest start: " + ingest_->error());
    }
    after = list_tasks();
    reader_tids_ = new_tasks(before, after);
  }
  wait_probe();
  return static_cast<double>(monotonic_ns() - t0) / 1e9;
}

void Appliance::wait_probe() {
  TrialLedger probe(workload_, kProbeTrial, 1, realtime_ns(), 1.0);
  const std::int64_t deadline = monotonic_ns() + kProbeTimeoutNs;
  if (workload_.udp()) {
    if (sender_->send(kProbeTrial, 0, 1, ingest_->port()) != 1) {
      throw std::runtime_error("probe: send failed");
    }
    while (probe.delivered() + probe.wrong() == 0 &&
           monotonic_ns() < deadline) {
      if (sink_->drain(&probe) == 0) cpu_relax();
      probe.finish();
    }
  } else {
    runtime_->port(0).submit(workload_.make_input(kProbeTrial, 0), 0);
    std::vector<runtime::EgressItem> items;
    while (items.empty() && monotonic_ns() < deadline) {
      for (std::size_t w = 0; w < workload_.workers(); ++w) {
        runtime_->egress_lane(w).pop_burst(items, kBatch);
      }
    }
    for (const auto& item : items) probe.arrive(item.pkt.view(), 0);
    probe.finish();
  }
  if (probe.wrong() != 0) throw std::runtime_error("probe: wrong output bytes");
  if (probe.delivered() != 1) throw std::runtime_error("probe: no output");
}

nn::core::NeutralizerStats Appliance::stop() {
  if (!runtime_) return {};
  if (ingest_) ingest_->stop();
  runtime_->flush();
  if (egress_) {
    egress_->flush();
    egress_->stop();
  } else {
    std::vector<runtime::EgressItem> leftovers;
    for (std::size_t w = 0; w < workload_.workers(); ++w) {
      while (runtime_->egress_lane(w).pop_burst(leftovers, kBatch) != 0) {
        leftovers.clear();
      }
    }
  }
  const nn::core::NeutralizerStats stats = runtime_->aggregate_stats();
  ingest_.reset();
  egress_.reset();
  runtime_->stop();
  runtime_.reset();
  if (sink_) {
    while (sink_->drain(nullptr) != 0) {
    }
  }
  return stats;
}

Appliance::Snapshot Appliance::snapshot() const {
  Snapshot s;
  s.wall = monotonic_ns();
  s.reader = tasks_cpu_ns(reader_tids_);
  s.worker = tasks_cpu_ns(worker_tids_);
  s.tx = tasks_cpu_ns(tx_tids_);
  s.rt = runtime_->stats().total();
  if (ingest_) s.in = ingest_->stats_total();
  if (egress_) s.eg = egress_->stats_total();
  return s;
}

PointResult Appliance::run(const std::string& label, double rate_pps,
                           double seconds, std::size_t windows,
                           bool saturating) {
  if (!runtime_) throw std::logic_error("run() before start()");
  PointResult r;
  r.label = label;
  r.offered_pps = rate_pps;
  const std::uint32_t trial = next_trial_++;
  const std::uint64_t n = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(rate_pps * seconds)));
  r.offered = n;
  const std::int64_t t0 = realtime_ns() + 2 * kMs;
  TrialLedger ledger(workload_, trial, n, t0, rate_pps);
  const std::int64_t last_due = ledger.due_ns(n - 1);
  // Slots still unsent this long after the last one fell due count as
  // lost: the generator (or, in the fabric, backpressure) fell behind.
  // Below saturation the grace covers a stall of the whole box, after
  // which the generator catches up and its late sends are charged as
  // latency; above it, backpressure is expected and the grace is short.
  const std::int64_t cutoff =
      last_due +
      (saturating
           ? std::max<std::int64_t>(20 * kMs,
                                    static_cast<std::int64_t>(seconds * 5e7))
           : std::max<std::int64_t>(250 * kMs,
                                    static_cast<std::int64_t>(seconds * 5e8)));
  // Sized now so the pages are faulted in before the trial starts.
  std::vector<double> late(n, 0.0);
  const bool udp = workload_.udp();
  const std::uint32_t sink_drops0 = udp ? sink_->drops() : 0;

  // Fabric consumer: pops both lanes, stamps and checks every survivor.
  std::atomic<std::uint64_t> popped{0};
  std::atomic<bool> done{false};
  std::int64_t consumer_cpu = 0;
  std::int64_t consumer_work = 0;
  AllocCount consumer_allocs;
  std::thread consumer;
  if (!udp) {
    consumer = std::thread([&] {
      pin_self(consumer_cpu_);
      const std::int64_t cpu0 = thread_cpu_ns();
      const AllocCount a0 = thread_allocs();
      std::vector<runtime::EgressItem> items;
      items.reserve(kBatch);
      std::vector<runtime::EgressLane> lanes;
      for (std::size_t w = 0; w < workload_.workers(); ++w) {
        lanes.push_back(runtime_->egress_lane(w));
      }
      for (;;) {
        bool got = false;
        for (auto& lane : lanes) {
          const std::int64_t w0 = monotonic_ns();
          if (lane.pop_burst(items, kBatch) == 0) continue;
          got = true;
          const std::int64_t ts = realtime_ns();
          for (const auto& item : items) ledger.arrive(item.pkt.view(), ts);
          popped.fetch_add(items.size(), std::memory_order_release);
          items.clear();
          consumer_work += monotonic_ns() - w0;
        }
        if (!got) {
          if (done.load(std::memory_order_acquire)) break;
          cpu_relax();
        }
      }
      consumer_cpu = thread_cpu_ns() - cpu0;
      consumer_allocs = thread_allocs() - a0;
    });
  }

  const AllocCount gen_a0 = thread_allocs();
  const std::int64_t gen_cpu0 = thread_cpu_ns();
  const AllocCount proc_a0 = process_allocs();
  const std::int64_t proc_cpu0 = process_cpu_ns();
  const Snapshot s0 = snapshot();

  runtime::IngressPort port;
  if (!udp) port = runtime_->port(0);
  std::vector<nn::net::Packet> burst;
  burst.reserve(kBatch);
  std::uint64_t sent = 0;    // slots handled (handed over or failed)
  std::uint64_t handed = 0;  // slots the kernel / the ring accepted
  std::uint64_t arrived = 0;
  std::int64_t gen_work = 0;
  const double interval = 1e9 / rate_pps;
  // One sendmmsg carries every slot that is due once `min_batch` of them
  // are, or once the oldest has waited kMaxHoldNs: at high rates a call
  // carries several packets, and no packet is held back longer than
  // kMaxHoldNs (its latency still counts from its due time).
  const auto min_batch = static_cast<std::uint64_t>(std::clamp<double>(
      std::floor(rate_pps * static_cast<double>(kMaxHoldNs) / 1e9), 1.0,
      static_cast<double>(kBatch)));
  std::int64_t next_drain = 0;
  while (sent < n) {
    const std::int64_t now = realtime_ns();
    if (now > cutoff) break;
    bool busy = false;
    if (now >= t0) {
      const auto due = std::min<std::uint64_t>(
          n, static_cast<std::uint64_t>(static_cast<double>(now - t0) /
                                        interval) +
                 1);
      if (due > sent && (due - sent >= min_batch ||
                         now - ledger.due_ns(sent) >= kMaxHoldNs)) {
        const std::size_t b = static_cast<std::size_t>(
            std::min<std::uint64_t>(kBatch, due - sent));
        for (std::size_t i = 0; i < b; ++i) {
          late[sent + i] =
              static_cast<double>(now - ledger.due_ns(sent + i)) / 1e3;
        }
        const std::int64_t w0 = monotonic_ns();
        if (udp) {
          handed += sender_->send(trial, sent, b, ingest_->port());
        } else {
          burst.clear();
          for (std::size_t i = 0; i < b; ++i) {
            burst.push_back(workload_.make_input(trial, sent + i));
          }
          handed += port.submit_burst(burst, 0);
        }
        gen_work += monotonic_ns() - w0;
        sent += b;
        busy = true;
      }
    }
    // The sink stamps arrivals in the kernel, so draining it can wait
    // kDrainEveryNs unless the last drain came back full.
    if (udp && now >= next_drain) {
      const std::int64_t w0 = monotonic_ns();
      const std::size_t got = sink_->drain(&ledger);
      next_drain = got == kBatch ? now : now + kDrainEveryNs;
      if (got != 0) {
        arrived += got;
        gen_work += monotonic_ns() - w0;
        busy = true;
      }
    }
    if (!busy) cpu_relax();
  }
  r.unsent = n - handed;
  r.sent = udp ? handed : 0;

  // Let the pipe empty: every handed-over slot has come out, or nothing
  // has come out for the quiet number of polls.
  {
    const std::int64_t drain_start = monotonic_ns();
    const int quiet_polls = saturating ? kQuietPollsSaturating : kQuietPolls;
    int empty_polls = 0;
    std::uint64_t seen = udp ? arrived : popped.load();
    for (;;) {
      if (udp) {
        const std::size_t got = sink_->drain(&ledger);
        arrived += got;
        if (got != 0) {
          empty_polls = 0;
          continue;
        }
        seen = arrived;
      } else {
        const std::uint64_t p = popped.load(std::memory_order_acquire);
        empty_polls = p != seen ? 0 : empty_polls;
        seen = p;
      }
      if (seen >= handed || ++empty_polls > quiet_polls ||
          monotonic_ns() - drain_start > kDrainCapNs) {
        break;
      }
      nap_us(100);
    }
  }
  if (!udp) {
    done.store(true, std::memory_order_release);
    consumer.join();
  }

  const Snapshot s1 = snapshot();
  const std::int64_t proc_cpu1 = process_cpu_ns();
  const AllocCount proc_a1 = process_allocs();
  const std::int64_t gen_cpu = thread_cpu_ns() - gen_cpu0;
  const AllocCount gen_allocs = thread_allocs() - gen_a0;

  ledger.finish();
  r.delivered = ledger.delivered();
  r.lost = ledger.lost();
  r.wrong = ledger.wrong();
  r.stray = ledger.stray();
  r.sink_drops = udp ? sink_->drops() - sink_drops0 : 0;
  std::vector<double> lat = ledger.latencies_us();
  r.lat = summarize(lat);
  r.windows = ledger.windows(windows);
  late.resize(sent);
  r.late_p99_us = late.empty() ? 0 : summarize(late).p99;

  const std::int64_t from = t0 + static_cast<std::int64_t>(
                                     0.3 * static_cast<double>(last_due - t0));
  const TrialLedger::Window win = ledger.window(from, last_due);
  const double win_s = static_cast<double>(last_due - from) / 1e9;
  if (win_s > 0) {
    r.delivered_pps = static_cast<double>(win.packets) / win_s;
    r.goodput_mbps = static_cast<double>(win.payload_bytes) * 8.0 / win_s / 1e6;
  }

  r.wall_ns = s1.wall - s0.wall;
  r.appliance_cpu_ns = (proc_cpu1 - proc_cpu0) - gen_cpu - consumer_cpu;
  const AllocCount proc_allocs = proc_a1 - proc_a0;
  r.appliance_allocs = {proc_allocs.calls - gen_allocs.calls -
                            consumer_allocs.calls,
                        proc_allocs.bytes - gen_allocs.bytes -
                            consumer_allocs.bytes};
  r.busy_reader = busiest(s0.reader, s1.reader, r.wall_ns);
  r.busy_worker = busiest(s0.worker, s1.worker, r.wall_ns);
  r.busy_tx = busiest(s0.tx, s1.tx, r.wall_ns);
  r.busy_gen = static_cast<double>(gen_work) / static_cast<double>(r.wall_ns);
  r.busy_consumer =
      static_cast<double>(consumer_work) / static_cast<double>(r.wall_ns);
  r.processed = s1.rt.processed - s0.rt.processed;
  r.batches = s1.rt.batches - s0.rt.batches;
  r.blocked_waits = s1.rt.blocked_waits - s0.rt.blocked_waits;
  r.egress_dropped = s1.rt.egress_dropped - s0.rt.egress_dropped;
  r.datagrams = s1.in.datagrams - s0.in.datagrams;
  r.truncated = s1.in.truncated - s0.in.truncated;
  r.runts = s1.in.runts - s0.in.runts;
  r.send_failures = s1.eg.send_failures - s0.eg.send_failures;
  return r;
}

}  // namespace appbench
