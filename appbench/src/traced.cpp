#include "traced.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "appliance.hpp"
#include "core/master_key.hpp"
#include "net/arena.hpp"
#include "net/ip.hpp"
#include "net/udp.hpp"
#include "probes.hpp"
#include "runtime/shard_runtime.hpp"
#include "runtime/udp_egress.hpp"
#include "runtime/udp_ingest.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace appbench {

namespace runtime = nn::runtime;

namespace {

constexpr std::size_t kChunk = 512;  // inputs per replay round trip
constexpr std::size_t kBatch = 64;   // recvmmsg / sendmmsg / process_batch
constexpr std::uint32_t kFirstTrial = 1u << 20;  // apart from the appliance's

enum Stage { kRecv, kFrame, kSubmit, kFlush, kPop, kSend, kStages };

struct Span {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  AllocCount allocs;
};

// The single-thread replay of the appliance path (see traced.hpp).
class Replayer {
 public:
  explicit Replayer(Workload& workload)
      : workload_(workload),
        runtime_(std::make_unique<runtime::ShardRuntime>(
            workload.workers(), workload.config(), workload.root_key(),
            appliance_runtime_config())),
        port_(runtime_->port(0)) {
    for (std::size_t w = 0; w < workload.workers(); ++w) {
      lanes_.push_back(runtime_->egress_lane(w));
    }
    if (workload.udp()) {
      // The reader's and the transmit thread's socket settings.
      const runtime::UdpIngestConfig icfg;
      const runtime::UdpEgressConfig ecfg;
      max_datagram_ = icfg.max_datagram_bytes;
      in_ = nn::net::UdpSocket::bind_loopback(0, false);
      out_ = nn::net::UdpSocket::bind_loopback(0, false);
      if (!in_.valid() || !out_.valid()) {
        throw std::runtime_error("traced replay sockets: " + in_.error() +
                                 out_.error());
      }
      in_.set_recv_buffer(icfg.rcvbuf_bytes);
      in_.set_recv_timeout_ms(icfg.recv_timeout_ms);
      out_.set_send_buffer(ecfg.sndbuf_bytes);
      sender_ = std::make_unique<Sender>(workload);
      sink_ = std::make_unique<Sink>();
    }
    pkts_.reserve(kChunk);
    items_.reserve(kChunk);
  }

  ~Replayer() {
    runtime_->flush();
    runtime_->stop();
  }

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Runs `chunks` chunks of inputs through the path; returns the wall
  /// time the appliance stages took (harness sends and checks excluded).
  std::int64_t pass(std::size_t chunks, bool traced) {
    const std::uint32_t trial = next_trial_++;
    TrialLedger ledger(workload_, trial, chunks * kChunk, 0, 1.0);
    std::int64_t wall = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::uint64_t base = c * kChunk;
      pkts_.clear();
      if (sink_) {
        for (std::size_t i = 0; i < kChunk; i += kBatch) {
          sender_->send(trial, base + i, kBatch, in_.local_port());
        }
      } else {
        for (std::size_t i = 0; i < kChunk; ++i) {
          pkts_.push_back(workload_.make_input(trial, base + i));
        }
      }
      const std::int64_t t0 = monotonic_ns();
      if (sink_) {
        std::size_t got = 0;
        while (got < kChunk) {
          std::size_t n = 0;
          span(traced, kRecv, [&] {
            n = in_.recv_batch(dgrams_, kBatch, max_datagram_);
          });
          if (n == 0) break;  // receive timeout: the rest is lost
          span(traced, kFrame, [&] {
            // The reader's checks and framing, datagram by datagram.
            for (auto& d : dgrams_) {
              if (d.truncated || d.bytes.size() < nn::net::kIpv4HeaderSize) {
                continue;
              }
              pkts_.push_back(nn::net::Packet{std::move(d.bytes)});
            }
          });
          got += n;
        }
      }
      span(traced, kSubmit, [&] { port_.submit_burst(pkts_, 0); });
      span(traced, kFlush, [&] { runtime_->flush(); });
      span(traced, kPop, [&] {
        for (auto& lane : lanes_) {
          while (lane.pop_burst(items_, kChunk) != 0) {
          }
        }
      });
      if (sink_) {
        for (std::size_t i = 0; i < items_.size(); i += kBatch) {
          bufs_.clear();
          for (std::size_t j = i; j < std::min(items_.size(), i + kBatch); ++j) {
            bufs_.push_back(items_[j].pkt.view());
          }
          span(traced, kSend, [&] {
            out_.send_batch(nn::net::Ipv4Addr(127, 0, 0, 1), sink_->port(),
                            bufs_);
          });
        }
      }
      wall += monotonic_ns() - t0;
      if (traced) packets_ += kChunk;
      // Harness: check every output, then free it.
      if (sink_) {
        while (sink_->drain(&ledger) != 0) {
        }
      } else {
        for (const auto& item : items_) ledger.arrive(item.pkt.view(), 0);
      }
      items_.clear();
    }
    ledger.finish();
    lost_ += ledger.lost();
    wrong_ += ledger.wrong();
    return wall;
  }

  [[nodiscard]] const Span& stage(Stage s) const noexcept { return spans_[s]; }
  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_; }
  [[nodiscard]] std::uint64_t lost() const noexcept { return lost_; }
  [[nodiscard]] std::uint64_t wrong() const noexcept { return wrong_; }

 private:
  template <typename F>
  void span(bool traced, Stage s, F&& call) {
    if (!traced) {
      call();
      return;
    }
    const AllocCount a0 = process_allocs();
    const std::int64_t t0 = monotonic_ns();
    call();
    const std::int64_t t1 = monotonic_ns();
    const AllocCount a1 = process_allocs();
    Span& sp = spans_[s];
    sp.ns += t1 - t0;
    ++sp.calls;
    sp.allocs.calls += a1.calls - a0.calls;
    sp.allocs.bytes += a1.bytes - a0.bytes;
  }

  Workload& workload_;
  std::unique_ptr<runtime::ShardRuntime> runtime_;
  runtime::IngressPort port_;
  std::vector<runtime::EgressLane> lanes_;
  nn::net::UdpSocket in_;
  nn::net::UdpSocket out_;
  std::size_t max_datagram_ = 0;
  std::unique_ptr<Sender> sender_;
  std::unique_ptr<Sink> sink_;
  std::vector<nn::net::UdpDatagram> dgrams_;
  std::vector<nn::net::Packet> pkts_;
  std::vector<runtime::EgressItem> items_;
  std::vector<std::span<const std::uint8_t>> bufs_;
  Span spans_[kStages];
  std::uint32_t next_trial_ = kFirstTrial;
  std::uint64_t packets_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t wrong_ = 0;
};

double per(std::int64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

// core.neutralize: process_batch on a standalone Neutralizer with the
// appliance's config and key, 64-packet batches, an arena as the worker
// passes one.
void replay_core(Workload& workload, std::size_t packets, TraceResult& r) {
  nn::core::Neutralizer service(workload.config(), workload.root_key());
  nn::net::PacketArena arena(appliance_runtime_config().arena_max_free);
  std::vector<nn::net::Packet> batch;
  batch.reserve(kBatch);
  std::int64_t ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t done = 0;
  for (std::uint64_t seq = 0; done < packets; seq += kBatch) {
    batch.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(workload.make_input(kFirstTrial - 1, seq + i));
    }
    const AllocCount a0 = process_allocs();
    const std::int64_t t0 = monotonic_ns();
    const std::size_t kept = service.process_batch(batch, 0, &arena);
    ns += monotonic_ns() - t0;
    allocs += (process_allocs() - a0).calls;
    if (kept != kBatch) r.wrong += kBatch - kept;
    done += kBatch;
  }
  r.neutralize_ns = per(ns, done);
  r.neutralize_allocs_per_pkt =
      static_cast<double>(allocs) / static_cast<double>(done);
}

// crypto.*: the batched entry points replayed on the workload's keys
// and nonces (labelled replays: the datapath calls them per batch).
void replay_crypto(Workload& workload, std::size_t packets, TraceResult& r) {
  const nn::core::MasterKeySchedule sched(workload.root_key());
  const nn::crypto::Cmac keyed(sched.current_key(0));
  {
    const auto& reqs = workload.derive_requests();
    std::vector<nn::crypto::AesKey> out(kBatch);
    std::int64_t ns = 0;
    std::uint64_t done = 0;
    for (std::size_t off = 0; done < packets; off = (off + kBatch) % reqs.size()) {
      const std::size_t n = std::min(kBatch, reqs.size() - off);
      const std::int64_t t0 = monotonic_ns();
      nn::crypto::derive_keys_batch(keyed, {reqs.data() + off, n}, out.data());
      ns += monotonic_ns() - t0;
      done += n;
    }
    r.derive_ns = per(ns, done);
  }
  if (const auto& reqs = workload.addr_requests(); !reqs.empty()) {
    std::vector<std::uint32_t> out(kBatch);
    std::int64_t ns = 0;
    std::uint64_t done = 0;
    for (std::size_t off = 0; done < packets; off = (off + kBatch) % reqs.size()) {
      const std::size_t n = std::min(kBatch, reqs.size() - off);
      const std::int64_t t0 = monotonic_ns();
      nn::crypto::crypt_address_batch({reqs.data() + off, n}, out.data());
      ns += monotonic_ns() - t0;
      done += n;
    }
    r.addr_ns = per(ns, done);
  }
  if (const auto& keys = workload.rsa_keys(); !keys.empty()) {
    nn::SplitMix64 rng(0x5E7);
    nn::crypto::RsaScratch scratch;
    std::vector<std::uint8_t> out;
    const std::vector<std::uint8_t> msg(24, 0xA5);  // nonce || Ks
    const std::size_t setups = std::max<std::size_t>(packets / 8, 256);
    const std::int64_t t0 = monotonic_ns();
    for (std::size_t i = 0; i < setups; ++i) {
      nn::crypto::rsa_encrypt_into(rng, keys[i % keys.size()], msg, scratch,
                                   out);
    }
    r.rsa_ns_per_setup = per(monotonic_ns() - t0, setups);
  }
}

}  // namespace

TraceResult run_traced(Workload& workload, double seconds) {
  TraceResult r;
  Replayer replayer(workload);
  // Warm: fill arenas and caches, fault in the buffers.
  (void)replayer.pass(2, false);

  // Alternate untraced and traced passes; each pass is sized so the
  // rounds take about two thirds of the budget.
  const std::int64_t probe_ns = std::max<std::int64_t>(replayer.pass(1, false), 1);
  const double budget_ns = seconds * 1e9 * 2.0 / 3.0;
  constexpr int kRounds = 3;
  const std::size_t chunks = std::clamp<std::size_t>(
      static_cast<std::size_t>(budget_ns / (2.0 * kRounds) /
                               static_cast<double>(probe_ns) / 2.0),
      2, 400);
  std::vector<double> plain, traced;
  std::int64_t traced_wall = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t p = replayer.pass(chunks, false);
    const std::int64_t t = replayer.pass(chunks, true);
    plain.push_back(static_cast<double>(p));
    traced.push_back(static_cast<double>(t));
    traced_wall += t;
  }

  const std::uint64_t n = replayer.packets();
  r.packets = n;
  r.lost = replayer.lost();
  r.wrong = replayer.wrong();
  const auto ns_per = [&](Stage s) { return per(replayer.stage(s).ns, n); };
  r.recv_ns = ns_per(kRecv);
  r.frame_ns = ns_per(kFrame);
  r.submit_ns = ns_per(kSubmit);
  r.flush_ns = ns_per(kFlush);
  r.pop_ns = ns_per(kPop);
  r.send_ns = ns_per(kSend);
  const Span& recv = replayer.stage(kRecv);
  const Span& send = replayer.stage(kSend);
  r.recv_allocs_per_call =
      recv.calls == 0 ? 0.0
                      : static_cast<double>(recv.allocs.calls) /
                            static_cast<double>(recv.calls);
  r.recv_alloc_bytes_per_pkt =
      n == 0 ? 0.0
             : static_cast<double>(recv.allocs.bytes) / static_cast<double>(n);
  r.send_allocs_per_call =
      send.calls == 0 ? 0.0
                      : static_cast<double>(send.allocs.calls) /
                            static_cast<double>(send.calls);
  std::int64_t covered = 0;
  for (int s = 0; s < kStages; ++s) covered += replayer.stage(Stage(s)).ns;
  r.ledger_ns = per(traced_wall, n);
  r.coverage = traced_wall == 0 ? 0.0
                                : static_cast<double>(covered) /
                                      static_cast<double>(traced_wall);
  r.overhead_frac = median(traced) / median(plain) - 1.0;

  const std::size_t replay = std::max<std::size_t>(n / 2, 4096);
  replay_core(workload, replay, r);
  replay_crypto(workload, replay, r);
  return r;
}

}  // namespace appbench
