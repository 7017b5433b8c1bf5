#pragma once

// Core-private: the address interner shared by the content index
// (update_cost.cpp) and the displaced-entry scan (fib_size.cpp).

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "lina/net/ipv4.hpp"

namespace lina::core::detail {

/// Open-addressed address -> id table (linear probing, power-of-two
/// capacity kept at most half full). Ids are dense and follow first-seen
/// order: id i is `addresses[i]`. A slot holds the key beside its id, so
/// a probe reads one cache line and never the address list.
class AddressInterner {
 public:
  explicit AddressInterner(std::vector<net::Ipv4Address>& addresses)
      : addresses_(addresses) {
    rehash(1024);
  }

  std::uint32_t intern(net::Ipv4Address addr) {
    Slot& slot = slots_[slot_of(addr.value())];
    if (slot.id != kEmpty) return slot.id;
    const auto id = static_cast<std::uint32_t>(addresses_.size());
    addresses_.push_back(addr);
    slot = Slot{addr.value(), id};
    if (2 * addresses_.size() > slots_.size()) rehash(2 * slots_.size());
    return id;
  }

  /// The id `intern` gave `addr`, which must have been interned.
  [[nodiscard]] std::uint32_t id_of(net::Ipv4Address addr) const {
    const std::uint32_t id = slots_[slot_of(addr.value())].id;
    assert(id != kEmpty);
    return id;
  }

 private:
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();

  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t id = kEmpty;
  };

  /// The slot holding `key`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t slot_of(std::uint32_t key) const {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the top bits of a multiplicative hash.
    std::size_t i = static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i].id != kEmpty && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void rehash(std::size_t capacity) {
    slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    for (std::uint32_t id = 0; id < addresses_.size(); ++id) {
      slots_[slot_of(addresses_[id].value())] =
          Slot{addresses_[id].value(), id};
    }
  }

  std::vector<net::Ipv4Address>& addresses_;
  std::vector<Slot> slots_;
  int shift_ = 0;
};

}  // namespace lina::core::detail
