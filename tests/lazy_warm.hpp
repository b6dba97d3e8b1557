// Test reference for the batch warm: fills every source row through the
// lazy per-source Dijkstra that path() runs on first use (compute_row).
// These are the bytes warm_all_hierarchical must reproduce, and the table
// it leaves has no hierarchy plan.
#pragma once

#include <cstdint>

#include "underlay/routing.hpp"
#include "underlay/topology.hpp"

namespace uap2p::underlay {

inline void warm_lazily(const AsTopology& topo, RoutingTable& table) {
  const auto n = static_cast<std::uint32_t>(topo.router_count());
  for (std::uint32_t src = 0; src < n; ++src) {
    (void)table.path(RouterId(src), RouterId(src));
  }
}

}  // namespace uap2p::underlay
