// The traced run: one thread replays the workload's inputs through the
// same public calls the appliance threads make, one stage after the
// other, and records a span (and an operator-new delta) around each
// call. The spans live in this file, not in the library.
//
// Per chunk of inputs the replay does what reader, worker and transmit
// thread do between them:
//
//   UdpSocket::recv_batch     net.recv     (reader)
//   UdpDatagram -> Packet     net.frame    (reader)
//   IngressPort::submit_burst runtime.submit
//   ShardRuntime::flush       runtime.flush (the worker neutralizes)
//   EgressLane::pop_burst     runtime.pop  (transmit thread)
//   UdpSocket::send_batch     net.send     (transmit thread)
//
// fabric_small has no socket stages. The same loop run without spans
// gives the tracing overhead. Core and crypto costs come from replays on
// standalone instances with the appliance's config and keys.
#pragma once

#include <cstdint>

#include "workload.hpp"

namespace appbench {

struct TraceResult {
  std::uint64_t packets = 0;  ///< through the traced passes
  std::uint64_t lost = 0;     ///< replay outputs missing (all passes)
  std::uint64_t wrong = 0;    ///< replay outputs with wrong bytes
  double recv_ns = 0, recv_allocs_per_call = 0, recv_alloc_bytes_per_pkt = 0;
  double frame_ns = 0;
  double send_ns = 0, send_allocs_per_call = 0;
  double submit_ns = 0, flush_ns = 0, pop_ns = 0;
  double neutralize_ns = 0, neutralize_allocs_per_pkt = 0;
  double derive_ns = 0, addr_ns = 0, rsa_ns_per_setup = 0;
  double ledger_ns = 0;       ///< traced replay wall per packet
  double coverage = 0;        ///< span time / traced wall
  double overhead_frac = 0;   ///< traced wall / untraced wall - 1
};

/// Runs about `seconds` of traced and untraced passes plus the replays.
[[nodiscard]] TraceResult run_traced(Workload& workload, double seconds);

}  // namespace appbench
