// Workload synthesis and the output oracle of the appliance benchmark.
//
// A workload is a set of input templates (one per flow, or per key-setup
// source) plus a seeded schedule that says which template each send
// slot uses. Every input carries an 8-byte per-send tag:
//
//   * data packets (kDataForward / kDataReturn): the first 8 payload
//     bytes. The neutralizer never reads a data payload, so the tag
//     comes back untouched at the same offset.
//   * key setups (kKeySetup): the shim nonce, i.e. the request id, which
//     the neutralizer echoes in its kKeySetupResponse.
//
// A tag is (trial << kSeqBits) | seq, so an output names the trial and
// send slot it answers, and from the slot the template. The oracle
// compares every output byte with an in-process core::Neutralizer
// reference of the same input: data outputs against the template's
// reference with the tag bytes masked, key-setup responses against a
// reference computed for the exact request.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/neutralizer.hpp"
#include "crypto/aes_modes.hpp"
#include "crypto/rsa.hpp"
#include "net/packet.hpp"
#include "stats.hpp"

namespace appbench {

enum class Kind { kUdpSmall, kUdpImix, kUdpKeySetup, kFabricSmall };

[[nodiscard]] std::optional<Kind> kind_from_name(std::string_view name);

inline constexpr std::size_t kTagBytes = 8;
inline constexpr int kSeqBits = 40;
inline constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

[[nodiscard]] constexpr std::uint64_t make_tag(std::uint32_t trial,
                                               std::uint64_t seq) noexcept {
  return (static_cast<std::uint64_t>(trial) << kSeqBits) | (seq & kSeqMask);
}
[[nodiscard]] constexpr std::uint32_t tag_trial(std::uint64_t tag) noexcept {
  return static_cast<std::uint32_t>(tag >> kSeqBits);
}
[[nodiscard]] constexpr std::uint64_t tag_seq(std::uint64_t tag) noexcept {
  return tag & kSeqMask;
}

struct Template {
  nn::net::Packet input;     ///< the input with its tag bytes zero
  nn::net::Packet expected;  ///< reference output, tag zero (data only)
};

class Workload {
 public:
  /// Builds every template, its reference output and the send schedule
  /// from `seed`; the same seed gives the same inputs.
  Workload(Kind kind, std::uint64_t seed);

  [[nodiscard]] bool udp() const noexcept { return kind_ != Kind::kFabricSmall; }
  [[nodiscard]] bool key_setup() const noexcept {
    return kind_ == Kind::kUdpKeySetup;
  }
  /// Appliance workers: 1 behind the UDP front end, 2 in the fabric.
  [[nodiscard]] std::size_t workers() const noexcept { return udp() ? 1 : 2; }

  [[nodiscard]] const nn::core::NeutralizerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const nn::crypto::AesKey& root_key() const noexcept {
    return root_;
  }
  [[nodiscard]] std::size_t template_of(std::uint64_t seq) const noexcept {
    return schedule_[seq % schedule_.size()];
  }
  [[nodiscard]] std::size_t max_input_bytes() const noexcept {
    return max_input_;
  }

  /// Byte offset of the tag in inputs and in outputs.
  [[nodiscard]] std::size_t tag_offset() const noexcept;
  /// Output bytes after the IPv4 and shim headers (goodput payload).
  [[nodiscard]] std::size_t payload_bytes(std::size_t output_size) const noexcept;

  /// Writes the input of send `seq` in trial `trial` to `out` (at least
  /// max_input_bytes() long); returns its length.
  std::size_t write_input(std::uint32_t trial, std::uint64_t seq,
                          std::uint8_t* out) const;
  [[nodiscard]] nn::net::Packet make_input(std::uint32_t trial,
                                           std::uint64_t seq) const;

  /// The tag an output carries, nullopt if it is too short to hold one.
  [[nodiscard]] std::optional<std::uint64_t> output_tag(
      std::span<const std::uint8_t> out) const noexcept;

  /// True when `out` is byte for byte the reference output of the input
  /// its tag names. Key-setup references are computed on demand through
  /// a private Neutralizer (one RSA encryption per call).
  [[nodiscard]] bool output_matches(std::span<const std::uint8_t> out);

  // Replay inputs for the crypto layer (one per template).
  [[nodiscard]] const std::vector<nn::crypto::KeyDeriveRequest>&
  derive_requests() const noexcept {
    return derive_reqs_;
  }
  [[nodiscard]] const std::vector<nn::crypto::AddressCryptRequest>&
  addr_requests() const noexcept {
    return addr_reqs_;
  }
  /// One-time RSA-512 e=3 public keys of the key-setup pool (empty for
  /// data workloads).
  [[nodiscard]] const std::vector<nn::crypto::RsaPublicKey>& rsa_keys()
      const noexcept {
    return rsa_keys_;
  }

 private:
  Kind kind_;
  nn::core::NeutralizerConfig config_;
  nn::crypto::AesKey root_{};
  std::vector<Template> templates_;
  std::vector<std::uint32_t> schedule_;
  std::size_t max_input_ = 0;
  std::vector<nn::crypto::KeyDeriveRequest> derive_reqs_;
  std::vector<nn::crypto::AddressCryptRequest> addr_reqs_;
  std::vector<nn::crypto::RsaPublicKey> rsa_keys_;
  nn::core::Neutralizer reference_;  // key-setup oracle
};

/// Everything the benchmark learns about one trial (one offered rate
/// for one duration): per-send arrival times, byte verdicts, and the
/// counts derived from them.
class TrialLedger {
 public:
  /// Send slot `seq` is due at t0_ns + seq * 1e9 / rate_pps (ns on the
  /// same clock as the arrival stamps).
  TrialLedger(Workload& workload, std::uint32_t trial, std::uint64_t offered,
              std::int64_t t0_ns, double rate_pps);

  [[nodiscard]] std::int64_t due_ns(std::uint64_t seq) const noexcept;

  /// One delivered datagram, stamped when it reached the sink. Data
  /// outputs are checked at once; key-setup responses are kept and
  /// checked by finish() so the RSA reference stays off the hot loop.
  void arrive(std::span<const std::uint8_t> bytes, std::int64_t ts_ns);
  /// Checks deferred outputs. Call once, after the last arrival.
  void finish();

  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t wrong() const noexcept { return wrong_; }
  /// Outputs of an earlier trial that arrived during this one (bytes
  /// verified; already counted lost in their own trial).
  [[nodiscard]] std::uint64_t stray() const noexcept { return stray_; }
  /// Offered slots with no correct output: never arrived, or wrong.
  [[nodiscard]] std::uint64_t lost() const noexcept;

  /// Latency in microseconds for every offered slot, +inf when the slot
  /// has no correct output.
  [[nodiscard]] std::vector<double> latencies_us() const;

  /// The slots split into `count` consecutive groups of (nearly) equal
  /// size, i.e. equal stretches of due time, each summarised on its own.
  [[nodiscard]] std::vector<LatencySummary> windows(std::size_t count) const;

  /// Correct outputs stamped in [from_ns, to_ns], and their payload
  /// bytes (output bytes after the IPv4 and shim headers).
  struct Window {
    std::uint64_t packets = 0;
    std::uint64_t payload_bytes = 0;
  };
  [[nodiscard]] Window window(std::int64_t from_ns, std::int64_t to_ns) const;

 private:
  void settle(std::span<const std::uint8_t> bytes, std::int64_t ts_ns,
              bool verified);

  Workload& workload_;
  std::uint32_t trial_;
  std::uint64_t offered_;
  std::int64_t t0_ns_;
  double interval_ns_;
  std::vector<std::int64_t> arrival_;  // -1 = none yet
  std::vector<std::uint32_t> out_size_;
  std::vector<std::uint8_t> bad_;      // 1 = a wrong output named this slot
  std::uint64_t delivered_ = 0;
  std::uint64_t wrong_ = 0;
  std::uint64_t stray_ = 0;
  // Deferred key-setup outputs, one fixed-size slot each (a response to
  // an RSA-512 setup is 96 bytes).
  static constexpr std::size_t kHeldBytesPerOutput = 128;
  struct Held {
    std::size_t offset = 0;
    std::size_t size = 0;
    std::int64_t ts_ns = 0;
  };
  std::vector<std::uint8_t> held_bytes_;
  std::vector<Held> held_;
  std::size_t held_count_ = 0;
};

}  // namespace appbench
