// The appliance as its users run it, driven open-loop from outside.
//
// UDP workloads: ShardRuntime (1 worker) + UdpIngestor (1 reader) +
// UdpEgressor (1 transmit thread), library defaults except egress mode,
// ports and destination. The generator (the calling thread) sends each
// input at its due time with sendmmsg to the ingest port and drains the
// sink socket without blocking; a delivery is stamped by the kernel at
// the sink (SO_TIMESTAMPNS).
//
// fabric_small: ShardRuntime (2 workers) with no sockets; the generator
// drives port(0) and one consumer thread pops both egress lanes,
// stamping each survivor as it pops it.
//
// Latency always runs from a packet's due time, so a late generator or
// a stall is charged to the packets behind it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/neutralizer.hpp"
#include "net/udp.hpp"
#include "probes.hpp"
#include "runtime/shard_runtime.hpp"
#include "runtime/udp_egress.hpp"
#include "runtime/udp_ingest.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace appbench {

/// The runtime configuration every appliance here runs: library
/// defaults, survivors forwarded to the egress lanes.
[[nodiscard]] nn::runtime::RuntimeConfig appliance_runtime_config();

/// The generator's socket: sends inputs with sendmmsg from a staging
/// area, so a send allocates nothing.
class Sender {
 public:
  explicit Sender(const Workload& workload);
  /// Sends the inputs of slots [first, first + count) of `trial`
  /// (count <= kSendBatch) to 127.0.0.1:`port`; returns how many the
  /// kernel accepted.
  std::size_t send(std::uint32_t trial, std::uint64_t first, std::size_t count,
                   std::uint16_t port);
  static constexpr std::size_t kSendBatch = 64;

 private:
  const Workload& workload_;
  nn::net::UdpSocket socket_;
  std::vector<std::uint8_t> stage_;
};

/// The socket survivors are sent to. Each drain() is one non-blocking
/// recvmmsg; every datagram goes to the ledger with its kernel receive
/// stamp (SO_TIMESTAMPNS, CLOCK_REALTIME ns).
class Sink {
 public:
  Sink();
  [[nodiscard]] std::uint16_t port() const noexcept {
    return socket_.local_port();
  }
  /// Datagrams received; `ledger` may be null to discard them.
  std::size_t drain(TrialLedger* ledger);
  /// Datagrams the kernel dropped at this socket so far (SO_RXQ_OVFL).
  [[nodiscard]] std::uint32_t drops() const noexcept { return drops_; }

 private:
  nn::net::UdpSocket socket_;
  std::vector<std::uint8_t> bufs_;
  std::vector<std::uint8_t> ctrl_;
  std::uint32_t drops_ = 0;
};

/// One offered rate held for one duration.
struct PointResult {
  std::string label;
  double offered_pps = 0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;  ///< correct outputs of this trial
  std::uint64_t lost = 0;       ///< offered slots without a correct output
  std::uint64_t wrong = 0;      ///< outputs whose bytes were wrong
  std::uint64_t unsent = 0;     ///< due slots the generator never sent
  std::uint64_t stray = 0;
  std::uint64_t sink_drops = 0;  ///< harness sink overflow (should be 0)
  LatencySummary lat;
  /// The same slots cut into consecutive stretches of due time.
  std::vector<LatencySummary> windows;
  double late_p99_us = 0;  ///< generator schedule slip
  /// Steady-state delivery (last 70% of the send window).
  double delivered_pps = 0;
  double goodput_mbps = 0;
  std::int64_t wall_ns = 0;
  std::int64_t appliance_cpu_ns = 0;  ///< process CPU minus harness threads
  AllocCount appliance_allocs;        ///< process allocs minus harness threads
  // Busy share (CPU / wall) of the busiest thread of each component.
  double busy_reader = 0, busy_worker = 0, busy_tx = 0, busy_gen = 0,
         busy_consumer = 0;
  // Counter deltas over the trial.
  std::uint64_t processed = 0, batches = 0, blocked_waits = 0,
                egress_dropped = 0;
  std::uint64_t datagrams = 0, truncated = 0, runts = 0, send_failures = 0;
  std::uint64_t sent = 0;  ///< datagrams the generator handed the kernel
};

class Appliance {
 public:
  explicit Appliance(Workload& workload);
  ~Appliance();
  Appliance(const Appliance&) = delete;
  Appliance& operator=(const Appliance&) = delete;

  /// Builds and starts the appliance and pushes one probe through it;
  /// returns the seconds from ShardRuntime construction until the probe
  /// came out. Throws std::runtime_error when it cannot start.
  double start();
  /// Quiesces and destroys the appliance; returns the neutralizer
  /// counters summed over its workers.
  nn::core::NeutralizerStats stop();

  /// Offers `rate_pps` for `seconds`, summarising latency over the whole
  /// trial and over `windows` consecutive stretches of it. A
  /// `saturating` trial offers more than the appliance can carry: its
  /// losses are expected, so it stops sending and waiting sooner.
  PointResult run(const std::string& label, double rate_pps, double seconds,
                  std::size_t windows = 1, bool saturating = false);

 private:
  struct Snapshot;
  Snapshot snapshot() const;
  void wait_probe();

  Workload& workload_;
  std::uint32_t next_trial_ = 1;
  int gen_cpu_ = -1;
  int consumer_cpu_ = -1;

  // Harness sockets (UDP workloads).
  std::unique_ptr<Sender> sender_;
  std::unique_ptr<Sink> sink_;

  // The appliance.
  std::unique_ptr<nn::runtime::ShardRuntime> runtime_;
  std::unique_ptr<nn::runtime::UdpEgressor> egress_;
  std::unique_ptr<nn::runtime::UdpIngestor> ingest_;
  std::vector<int> worker_tids_, reader_tids_, tx_tids_;
};

}  // namespace appbench
