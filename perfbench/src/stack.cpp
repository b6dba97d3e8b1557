#include "stack.hpp"

#include "underlay/hierarchy.hpp"

namespace perfbench {

using uap2p::underlay::AsTopology;
using uap2p::underlay::TopologyConfig;

AsTopology lab_topology(bool small, std::uint64_t seed) {
  TopologyConfig config;
  config.seed = seed;
  return small ? AsTopology::transit_stub(2, 6, 0.3, config)
               : AsTopology::transit_stub(3, 30, 0.3, config);
}

AsTopology provider_topology(bool small, std::uint64_t seed) {
  TopologyConfig config;
  config.seed = seed;
  return small ? AsTopology::transit_stub(4, 16, 0.3, config)
               : AsTopology::transit_stub(10, 90, 0.3, config);
}

BuildSteps build_stepwise(const std::function<AsTopology()>& make,
                          Tracer& tracer) {
  BuildSteps steps;
  const auto timed = [&](const char* name, double& ms, auto&& step) {
    ScopedSpan span(tracer, name);
    const std::uint64_t start = now_ns();
    step();
    ms = double(now_ns() - start) * 1e-6;
  };
  AsTopology topology;
  timed("underlay.topology", steps.topology_ms, [&] { topology = make(); });
  uap2p::underlay::RoutingTable table(topology);
  timed("underlay.as_hops", steps.as_hops_ms,
        [&] { topology.warm_as_hops(kThreads); });
  timed("underlay.csr", steps.csr_ms, [&] { (void)topology.csr(); });
  timed("routing.plan", steps.plan_ms, [&] { table.ensure_hierarchy(); });
  timed("routing.warm", steps.warm_ms,
        [&] { table.warm_all_hierarchical(kThreads); });
  timed("routing.landmarks", steps.landmarks_ms,
        [&] { table.ensure_landmarks(); });
  steps.row_mb = double(table.row_bytes()) / 1e6;
  return steps;
}

void fill_request(std::uint64_t seed, std::uint64_t index,
                  std::uint32_t routers, uap2p::oracled::RankRequest& req,
                  uap2p::oracled::Candidate* candidates) {
  std::uint64_t state = derive_seed(seed, index);
  req.client_router = std::uint32_t(splitmix64(state) % routers);
  req.candidate_count = kCandidates;
  req.candidates = candidates;
  for (std::uint32_t c = 0; c < kCandidates; ++c) {
    candidates[c].peer = std::uint32_t(splitmix64(state) % 65536);
    candidates[c].router = std::uint32_t(splitmix64(state) % routers);
  }
}

std::uint64_t reply_digest(const uap2p::oracled::RankRequest& req) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::uint32_t i = 0; i < req.candidate_count; ++i) {
    hash = (hash ^ req.ranked[i]) * 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t ask(uap2p::oracled::OracleService& service, std::uint64_t seed,
                  std::uint32_t routers) {
  using namespace uap2p::oracled;
  Candidate candidates[kCandidates];
  std::uint32_t ranked[kCandidates];
  RankRequest req;
  fill_request(seed, 0, routers, req, candidates);
  req.ranked = ranked;
  if (!service.submit(&req) || wait_terminal(req) != RequestState::kDone) {
    return 0;
  }
  return reply_digest(req);
}

FirstReply first_reply(
    std::shared_ptr<const uap2p::underlay::SharedRouting> routing,
    std::uint64_t seed, Tracer& tracer) {
  using namespace uap2p::oracled;
  const auto routers = std::uint32_t(routing->topology().router_count());
  FirstReply out;
  const std::uint64_t start = now_ns();
  std::int32_t span = tracer.begin("oracle.service_start");
  ServiceConfig config;
  config.workers = 2;
  OracleService service(std::move(routing), config);
  tracer.end(span);
  span = tracer.begin("oracle.first_reply");
  out.digest = ask(service, seed, routers);
  out.at_ns = now_ns();
  tracer.end(span);
  out.us = double(out.at_ns - start) * 1e-3;
  return out;
}

}  // namespace perfbench
