#include "lina/routing/vantage_router.hpp"

namespace lina::routing {

void VantageRouter::install(RibRoute route) {
  rib_.add(std::move(route));
  // Invalidate by re-arming: call_once flags cannot be reset in place.
  fib_once_ = std::make_unique<std::once_flag>();
}

void VantageRouter::build_fib() const {
  std::call_once(*fib_once_, [this] { fib_ = Fib::from_rib(rib_); });
}

const Fib& VantageRouter::fib() const {
  build_fib();
  return fib_;
}

std::size_t VantageRouter::next_hop_degree() const {
  return fib().next_hop_degree();
}

}  // namespace lina::routing
