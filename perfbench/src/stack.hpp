// Library-facing helpers shared by the workloads: topology sizes, the
// step-by-step routing build, and the seeded oracle request stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common.hpp"
#include "oracle/service.hpp"
#include "underlay/routing.hpp"
#include "underlay/topology.hpp"

namespace perfbench {

/// Worker threads any one phase may use (the benchmark host has 4 cores).
inline constexpr std::size_t kThreads = 4;

/// [1]'s Table 1 lab underlay: 93 ASes, 279 routers (small: 36 routers).
[[nodiscard]] uap2p::underlay::AsTopology lab_topology(bool small,
                                                       std::uint64_t seed);
/// The oracle tier's underlay: 910 ASes, 2730 routers, 238 MB of rows
/// (small: 204 routers).
[[nodiscard]] uap2p::underlay::AsTopology provider_topology(
    bool small, std::uint64_t seed);

/// Wall time of each public step SharedRouting::build runs, in the order
/// it runs them.
struct BuildSteps {
  double topology_ms = 0.0;  ///< Generation; not part of build().
  double as_hops_ms = 0.0;
  double csr_ms = 0.0;
  double plan_ms = 0.0;
  double warm_ms = 0.0;
  double landmarks_ms = 0.0;
  double row_mb = 0.0;
  [[nodiscard]] double sum_ms() const {
    return as_hops_ms + csr_ms + plan_ms + warm_ms + landmarks_ms;
  }
};

/// Generates a topology with `make`, then runs SharedRouting::build's
/// public steps one at a time over it into a standalone RoutingTable,
/// each under its own span. The table is dropped on return.
BuildSteps build_stepwise(
    const std::function<uap2p::underlay::AsTopology()>& make,
    Tracer& tracer);

/// Candidates per oracle request.
inline constexpr std::uint32_t kCandidates = 8;

/// Request `index` of the stream named by `seed`: a pure function of
/// (seed, index), so a reply can be re-derived and checked later.
void fill_request(std::uint64_t seed, std::uint64_t index,
                  std::uint32_t routers, uap2p::oracled::RankRequest& req,
                  uap2p::oracled::Candidate* candidates);

/// FNV-1a over the ranked peer ids of a completed request.
[[nodiscard]] std::uint64_t reply_digest(
    const uap2p::oracled::RankRequest& req);

/// Submits request 0 of `seed`'s stream to `service` and waits for the
/// reply; returns its digest, 0 when the service shed it or is stopping.
std::uint64_t ask(uap2p::oracled::OracleService& service, std::uint64_t seed,
                  std::uint32_t routers);

struct FirstReply {
  std::uint64_t digest = 0;  ///< reply_digest of the reply; 0 if none.
  std::uint64_t at_ns = 0;   ///< When the reply was observed.
  double us = 0.0;           ///< Service construction to reply.
};

/// Starts a 2-worker OracleService over `routing` and waits for its reply
/// to request 0 of `seed`'s stream. The service is stopped and joined
/// after `at_ns` is taken.
FirstReply first_reply(
    std::shared_ptr<const uap2p::underlay::SharedRouting> routing,
    std::uint64_t seed, Tracer& tracer);

}  // namespace perfbench
