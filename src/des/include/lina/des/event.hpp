#pragma once

#include <cstdint>

namespace lina::des {

/// What a flat event record means to the packet model.
///
/// The DES replaces sim::EventQueue's type-erased std::function entries
/// with these fixed-size POD records: the hot loops move 48-byte values
/// through vector-backed heaps, work-lists and mailboxes, never
/// allocating and never chasing a closure pointer.
enum class EventType : std::uint8_t {
  kEmit,  // the correspondent emits packet `packet` (and re-arms itself)
  kHop,   // packet `packet` is at AS `at`, forwarding toward `dest`
};

/// The forwarding stage of a kHop record.
enum class HopStage : std::uint8_t {
  kRelay,  // heading for the indirection relay (home agent)
  kFinal,  // heading for the believed mobile location
};

/// One scheduled event. POD by design: records are copied into per-shard
/// arenas and cross-shard mailboxes by value.
struct EventRecord {
  double time_ms = 0.0;    // absolute simulated time
  double sent_ms = 0.0;    // kHop: when the packet left the correspondent
  std::uint64_t seq = 0;   // time-ordered queues: FIFO tie-break on push
  std::uint32_t session = 0;  // index into the model's session arena
  std::uint32_t packet = 0;   // packet sequence number within the session
  std::uint32_t at = 0;       // current AS (kEmit: the correspondent)
  std::uint32_t dest = 0;     // AS the packet is currently addressed to
  std::uint16_t hops = 0;     // forwarding hops taken so far
  EventType type = EventType::kEmit;
  HopStage stage = HopStage::kFinal;
};

static_assert(sizeof(EventRecord) <= 48, "event records must stay flat");

namespace detail {

/// splitmix64 finalizer: the per-packet hash the digest folds over.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

/// Order-independent summary of every delivered packet: a commutative
/// fold (XOR and wrapping sum of per-packet hashes), so any execution
/// order of the same delivered-packet multiset produces the same digest —
/// the property that lets run_serial run events in work-list order and
/// the sharded engine, in time order, match it bit-for-bit at any shard
/// count or batch size.
/// Delay is accumulated in integer microseconds (exact, associative); a
/// floating-point sum would depend on accumulation order.
struct DeliveryDigest {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t hop_events = 0;
  std::uint64_t xor_mix = 0;
  std::uint64_t sum_mix = 0;
  std::uint64_t delay_us_total = 0;
  std::uint64_t hops_total = 0;

  /// `session_id` is the *global* session identity (not a batch-local
  /// index), so out-of-core replay produces the same digest at any batch
  /// size.
  void add_delivered(std::uint64_t session_id, std::uint32_t packet,
                     double time_ms, double sent_ms, std::uint16_t hops,
                     std::uint32_t dest_as) {
    ++delivered;
    hops_total += hops;
    const double delay_ms = time_ms - sent_ms;
    delay_us_total += static_cast<std::uint64_t>(delay_ms * 1000.0 + 0.5);
    std::uint64_t h = detail::mix64(session_id);
    h = detail::mix64(h ^ packet);
    h = detail::mix64(h ^ static_cast<std::uint64_t>(hops));
    h = detail::mix64(h ^ static_cast<std::uint64_t>(dest_as));
    h = detail::mix64(
        h ^ static_cast<std::uint64_t>(delay_ms * 1024.0 + 0.5));
    xor_mix ^= h;
    sum_mix += h;
  }

  /// Commutative merge of another shard's digest.
  void combine(const DeliveryDigest& other) {
    sent += other.sent;
    delivered += other.delivered;
    lost += other.lost;
    hop_events += other.hop_events;
    xor_mix ^= other.xor_mix;
    sum_mix += other.sum_mix;
    delay_us_total += other.delay_us_total;
    hops_total += other.hops_total;
  }

  /// One number summarizing the whole digest (for bench result blocks).
  [[nodiscard]] std::uint64_t fingerprint() const {
    std::uint64_t h = detail::mix64(sent ^ detail::mix64(delivered));
    h = detail::mix64(h ^ lost);
    h = detail::mix64(h ^ xor_mix);
    h = detail::mix64(h ^ sum_mix);
    h = detail::mix64(h ^ delay_us_total);
    h = detail::mix64(h ^ hops_total);
    return h;
  }

  friend bool operator==(const DeliveryDigest&,
                         const DeliveryDigest&) = default;
};

}  // namespace lina::des
