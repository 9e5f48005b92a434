#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/master_key.hpp"
#include "net/ip.hpp"
#include "net/shim.hpp"
#include "util/rng.hpp"

namespace appbench {

namespace {

using nn::net::Ipv4Addr;

const Ipv4Addr kAnycast(200, 0, 0, 1);
constexpr std::size_t kScheduleSlots = std::size_t{1} << 16;
// IPv4 header + shim base + inner address: where a data payload starts.
constexpr std::size_t kDataHeader =
    nn::net::kIpv4HeaderSize + nn::net::kShimBaseSize +
    nn::net::kShimInnerAddrSize;
// The shim nonce (the key-setup request id) follows type/flags/epoch.
constexpr std::size_t kNonceOffset = nn::net::kIpv4HeaderSize + 4;
constexpr std::size_t kSetupHeader =
    nn::net::kIpv4HeaderSize + nn::net::kShimBaseSize;
// Classic IMIX 7:4:1 IP sizes, the smallest raised from 40 B to carry
// the headers and the tag.
constexpr std::size_t kImixSizes[3] = {kDataHeader + kTagBytes, 576, 1500};

void put_be64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

std::uint64_t get_be64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

// An outside host: 10.0.0.0/8, odd last octet.
Ipv4Addr outside_addr(nn::Rng& rng) {
  return Ipv4Addr(0x0A000000u |
                  (static_cast<std::uint32_t>(rng.next_u64()) & 0x00FFFFFFu) |
                  1u);
}

}  // namespace

std::optional<Kind> kind_from_name(std::string_view name) {
  if (name == "udp_small") return Kind::kUdpSmall;
  if (name == "udp_imix") return Kind::kUdpImix;
  if (name == "udp_keysetup") return Kind::kUdpKeySetup;
  if (name == "fabric_small") return Kind::kFabricSmall;
  return std::nullopt;
}

namespace {

nn::core::NeutralizerConfig service_config() {
  nn::core::NeutralizerConfig cfg;
  cfg.anycast_addr = kAnycast;
  cfg.customer_space = nn::net::Ipv4Prefix::from_string("20.0.0.0/16");
  return cfg;
}

}  // namespace

Workload::Workload(Kind kind, std::uint64_t seed)
    : kind_(kind),
      config_(service_config()),
      root_([seed] {
        nn::SplitMix64 rng(seed ^ 0x6E6E'726F'6F74ULL);
        nn::crypto::AesKey k{};
        rng.fill(k);
        return k;
      }()),
      reference_(config_, root_) {
  nn::SplitMix64 rng(seed);
  const nn::core::MasterKeySchedule sched(root_);
  const nn::crypto::AesKey km0 = sched.current_key(0);

  if (kind == Kind::kUdpKeySetup) {
    // A small pool of one-time keys, each used from many sources: key
    // generation is the outside host's cost, not the appliance's.
    constexpr std::size_t kKeys = 8;
    constexpr std::size_t kSources = 256;
    for (std::size_t k = 0; k < kKeys; ++k) {
      rsa_keys_.push_back(nn::crypto::rsa_generate(rng, 512, 3).pub);
    }
    for (std::size_t s = 0; s < kSources; ++s) {
      const Ipv4Addr src = outside_addr(rng);
      for (std::size_t k = 0; k < kKeys; ++k) {
        nn::net::ShimHeader shim;
        shim.type = nn::net::ShimType::kKeySetup;
        Template t;
        t.input = nn::net::make_shim_packet(src, kAnycast, shim,
                                            rsa_keys_[k].serialize());
        templates_.push_back(std::move(t));
        derive_reqs_.push_back({rng.next_u64(), src.value(), false});
      }
    }
  } else {
    const bool imix = kind == Kind::kUdpImix;
    const std::size_t flows = imix ? 1024 : 256;
    // IMIX: 7:4:1 size classes shuffled across flows; odd flows are
    // kDataReturn, so the two directions split half/half.
    std::vector<std::size_t> sizes(flows, 112);
    std::vector<char> returns(flows, 0);
    if (imix) {
      for (std::size_t f = 0; f < flows; ++f) {
        const std::size_t r = f % 12;
        sizes[f] = kImixSizes[r < 7 ? 0 : (r < 11 ? 1 : 2)];
      }
      for (std::size_t f = flows - 1; f > 0; --f) {
        std::swap(sizes[f], sizes[rng.uniform(f + 1)]);
      }
      for (std::size_t f = 0; f < flows; ++f) returns[f] = f % 2 == 1;
    }
    for (std::size_t f = 0; f < flows; ++f) {
      const Ipv4Addr outside = outside_addr(rng);
      const Ipv4Addr customer = config_.customer_space.at(
          1 + static_cast<std::uint32_t>(rng.uniform(0xFFFE)));
      const std::uint64_t nonce = rng.next_u64();
      const nn::crypto::AesKey ks =
          nn::crypto::derive_source_key(km0, nonce, outside.value());
      nn::net::ShimHeader shim;
      shim.nonce = nonce;
      std::vector<std::uint8_t> payload(sizes[f] - kDataHeader);
      rng.fill(payload);
      std::fill_n(payload.begin(), kTagBytes, 0);
      Template t;
      if (returns[f]) {
        shim.type = nn::net::ShimType::kDataReturn;
        shim.inner_addr = outside.value();
        t.input = nn::net::make_shim_packet(customer, kAnycast, shim, payload);
        addr_reqs_.push_back({ks, nonce, true, customer.value()});
      } else {
        shim.type = nn::net::ShimType::kDataForward;
        shim.inner_addr =
            nn::crypto::crypt_address(ks, nonce, false, customer.value());
        t.input = nn::net::make_shim_packet(outside, kAnycast, shim, payload);
        addr_reqs_.push_back({ks, nonce, false, shim.inner_addr});
      }
      derive_reqs_.push_back({nonce, outside.value(), false});
      auto out = reference_.process(nn::net::Packet(t.input), 0);
      if (!out.has_value() || out->size() != t.input.size()) {
        throw std::logic_error("workload: reference rejected a data template");
      }
      t.expected = std::move(*out);
      templates_.push_back(std::move(t));
    }
  }
  for (const Template& t : templates_) {
    max_input_ = std::max(max_input_, t.input.size());
  }
  schedule_.resize(kScheduleSlots);
  for (auto& slot : schedule_) {
    slot = static_cast<std::uint32_t>(rng.uniform(templates_.size()));
  }
}

std::size_t Workload::tag_offset() const noexcept {
  return key_setup() ? kNonceOffset : kDataHeader;
}

std::size_t Workload::payload_bytes(std::size_t output_size) const noexcept {
  const std::size_t header = key_setup() ? kSetupHeader : kDataHeader;
  return output_size > header ? output_size - header : 0;
}

std::size_t Workload::write_input(std::uint32_t trial, std::uint64_t seq,
                                  std::uint8_t* out) const {
  const nn::net::Packet& in = templates_[template_of(seq)].input;
  std::memcpy(out, in.bytes.data(), in.size());
  put_be64(out + tag_offset(), make_tag(trial, seq));
  return in.size();
}

nn::net::Packet Workload::make_input(std::uint32_t trial,
                                     std::uint64_t seq) const {
  nn::net::Packet pkt{templates_[template_of(seq)].input.bytes};
  put_be64(pkt.bytes.data() + tag_offset(), make_tag(trial, seq));
  return pkt;
}

std::optional<std::uint64_t> Workload::output_tag(
    std::span<const std::uint8_t> out) const noexcept {
  if (out.size() < tag_offset() + kTagBytes) return std::nullopt;
  return get_be64(out.data() + tag_offset());
}

bool Workload::output_matches(std::span<const std::uint8_t> out) {
  const auto tag = output_tag(out);
  if (!tag.has_value()) return false;
  const std::uint64_t seq = tag_seq(*tag);
  if (key_setup()) {
    auto ref = reference_.process(make_input(tag_trial(*tag), seq), 0);
    return ref.has_value() && ref->size() == out.size() &&
           std::equal(out.begin(), out.end(), ref->bytes.begin());
  }
  const nn::net::Packet& expected = templates_[template_of(seq)].expected;
  const std::size_t tag_end = kDataHeader + kTagBytes;
  return expected.size() == out.size() &&
         std::equal(out.begin(), out.begin() + kDataHeader,
                    expected.bytes.begin()) &&
         std::equal(out.begin() + tag_end, out.end(),
                    expected.bytes.begin() + tag_end);
}

TrialLedger::TrialLedger(Workload& workload, std::uint32_t trial,
                         std::uint64_t offered, std::int64_t t0_ns,
                         double rate_pps)
    : workload_(workload),
      trial_(trial),
      offered_(offered),
      t0_ns_(t0_ns),
      interval_ns_(1e9 / rate_pps),
      arrival_(offered, -1),
      out_size_(offered, 0),
      bad_(offered, 0) {
  // Sized (so written, so faulted in) here, before the trial starts:
  // page faults during the trial would contend with the appliance's.
  if (workload_.key_setup()) {
    held_bytes_.resize(offered * kHeldBytesPerOutput);
    held_.resize(offered);
  }
}

std::int64_t TrialLedger::due_ns(std::uint64_t seq) const noexcept {
  return t0_ns_ + static_cast<std::int64_t>(
                      std::llround(static_cast<double>(seq) * interval_ns_));
}

void TrialLedger::arrive(std::span<const std::uint8_t> bytes,
                         std::int64_t ts_ns) {
  if (workload_.key_setup()) {
    const std::size_t offset = held_count_ * kHeldBytesPerOutput;
    if (held_count_ == held_.size() || bytes.size() > kHeldBytesPerOutput) {
      ++wrong_;  // more outputs than inputs, or not a key-setup response
      return;
    }
    std::memcpy(held_bytes_.data() + offset, bytes.data(), bytes.size());
    held_[held_count_++] = {offset, bytes.size(), ts_ns};
    return;
  }
  settle(bytes, ts_ns, workload_.output_matches(bytes));
}

void TrialLedger::finish() {
  for (std::size_t i = 0; i < held_count_; ++i) {
    const Held& h = held_[i];
    const std::span<const std::uint8_t> bytes(held_bytes_.data() + h.offset,
                                              h.size);
    settle(bytes, h.ts_ns, workload_.output_matches(bytes));
  }
  held_count_ = 0;
}

void TrialLedger::settle(std::span<const std::uint8_t> bytes,
                         std::int64_t ts_ns, bool verified) {
  const auto tag = workload_.output_tag(bytes);
  const bool ours = tag.has_value() && tag_trial(*tag) == trial_ &&
                    tag_seq(*tag) < offered_;
  if (!verified) {
    ++wrong_;
    if (ours) bad_[tag_seq(*tag)] = 1;
    return;
  }
  if (!ours) {
    ++stray_;
    return;
  }
  const std::uint64_t seq = tag_seq(*tag);
  if (arrival_[seq] >= 0) {
    ++wrong_;  // a second output for one input
    bad_[seq] = 1;
    return;
  }
  arrival_[seq] = ts_ns;
  out_size_[seq] = static_cast<std::uint32_t>(bytes.size());
  ++delivered_;
}

std::uint64_t TrialLedger::lost() const noexcept {
  std::uint64_t good = 0;
  for (std::uint64_t s = 0; s < offered_; ++s) {
    good += arrival_[s] >= 0 && bad_[s] == 0 ? 1 : 0;
  }
  return offered_ - good;
}

std::vector<double> TrialLedger::latencies_us() const {
  std::vector<double> lat(offered_, kInf);
  for (std::uint64_t s = 0; s < offered_; ++s) {
    if (arrival_[s] >= 0 && bad_[s] == 0) {
      lat[s] = static_cast<double>(arrival_[s] - due_ns(s)) / 1e3;
    }
  }
  return lat;
}

std::vector<LatencySummary> TrialLedger::windows(std::size_t count) const {
  const std::vector<double> lat = latencies_us();
  std::vector<LatencySummary> out;
  count = std::max<std::size_t>(1, std::min<std::size_t>(count, lat.size()));
  for (std::size_t w = 0; w < count; ++w) {
    std::vector<double> part(lat.begin() + static_cast<std::ptrdiff_t>(
                                               w * lat.size() / count),
                             lat.begin() + static_cast<std::ptrdiff_t>(
                                               (w + 1) * lat.size() / count));
    out.push_back(summarize(part));
  }
  return out;
}

TrialLedger::Window TrialLedger::window(std::int64_t from_ns,
                                        std::int64_t to_ns) const {
  Window w;
  for (std::uint64_t s = 0; s < offered_; ++s) {
    if (arrival_[s] >= from_ns && arrival_[s] <= to_ns && bad_[s] == 0) {
      ++w.packets;
      w.payload_bytes += workload_.payload_bytes(out_size_[s]);
    }
  }
  return w;
}

}  // namespace appbench
