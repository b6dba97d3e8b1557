// Gnutella property sweeps: TTL monotonicity, flood termination, degree
// invariants, dynamic-querying cost ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "overlay/gnutella.hpp"
#include "sim/engine.hpp"

namespace uap2p::overlay::gnutella {
namespace {

struct Lab {
  sim::Engine engine;
  underlay::AsTopology topo;
  std::unique_ptr<underlay::Network> net;
  std::vector<PeerId> peers;
  std::unique_ptr<netinfo::Oracle> oracle;
  std::unique_ptr<GnutellaSystem> system;

  explicit Lab(Config config, std::size_t peer_count = 60,
               std::uint64_t seed = 303) {
    topo = underlay::AsTopology::mesh(6, 0.4);
    net = std::make_unique<underlay::Network>(engine, topo, seed);
    peers = net->populate(peer_count);
    oracle = std::make_unique<netinfo::Oracle>(*net);
    system = std::make_unique<GnutellaSystem>(
        *net, peers, testlab_roles(peer_count, 2, topo.as_count()), config,
        oracle.get());
    system->bootstrap();
  }
};

class QueryTtlP : public ::testing::TestWithParam<int> {};

TEST_P(QueryTtlP, LargerTtlNeverFindsFewerProviders) {
  // Single full-TTL flood (dynamic querying off) with increasing TTL:
  // the provider set found is monotone in TTL.
  Config config;
  config.dynamic_querying = false;
  config.query_ttl = GetParam();
  Lab lab(config);
  const ContentId content(5);
  for (std::size_t i = 0; i < lab.peers.size(); i += 12) {
    lab.system->share(lab.peers[i], content);
  }
  const auto outcome = lab.system->search(lab.peers[1], content, false);

  Config bigger = config;
  bigger.query_ttl = GetParam() + 1;
  Lab bigger_lab(bigger);
  for (std::size_t i = 0; i < bigger_lab.peers.size(); i += 12) {
    bigger_lab.system->share(bigger_lab.peers[i], content);
  }
  const auto bigger_outcome =
      bigger_lab.system->search(bigger_lab.peers[1], content, false);
  EXPECT_GE(bigger_outcome.result_count, outcome.result_count);
}

INSTANTIATE_TEST_SUITE_P(Ttls, QueryTtlP, ::testing::Values(1, 2, 3));

TEST(GnutellaInvariants, DegreeBoundsHold) {
  Config config;
  config.max_ultrapeer_degree = 5;
  config.max_leaves = 6;
  config.leaf_attachments = 2;
  Lab lab(config, 90);
  for (const PeerId peer : lab.peers) {
    const auto neighbors = lab.system->neighbors_of(peer);
    if (lab.system->role_of(peer) == NodeRole::kUltrapeer) {
      std::size_t ups = 0, leaves = 0;
      for (const PeerId n : neighbors) {
        (lab.system->role_of(n) == NodeRole::kUltrapeer ? ups : leaves)++;
      }
      EXPECT_LE(ups, config.max_ultrapeer_degree);
      EXPECT_LE(leaves, config.max_leaves);
    } else {
      EXPECT_LE(neighbors.size(), config.leaf_attachments);
    }
  }
}

TEST(GnutellaInvariants, EdgesAreMutual) {
  Lab lab(Config{}, 75);
  for (const PeerId peer : lab.peers) {
    for (const PeerId other : lab.system->neighbors_of(peer)) {
      const auto back = lab.system->neighbors_of(other);
      EXPECT_NE(std::find(back.begin(), back.end(), peer), back.end());
    }
  }
}

TEST(GnutellaInvariants, FloodTerminates) {
  // A ping cycle and a search must quiesce: after the run the engine has
  // no gnutella events left (queued() counts only cancelled stubs or
  // unrelated timers; here there are none).
  Lab lab(Config{});
  lab.system->ping_cycle();
  const ContentId content(6);
  lab.system->share(lab.peers[7], content);
  lab.system->search(lab.peers[3], content, false);
  EXPECT_EQ(lab.engine.run(), 0u) << "events leaked past quiesce horizon";
}

TEST(GnutellaInvariants, DuplicateSuppressionBoundsQueryCount) {
  // A single full flood sends at most one query per directed UP edge plus
  // one per matching leaf — duplicates are never forwarded.
  Config config;
  config.dynamic_querying = false;
  Lab lab(config);
  const ContentId content(8);
  lab.system->share(lab.peers[11], content);
  const auto before = lab.system->counts().query;
  lab.system->search(lab.peers[2], content, false);
  const auto sent = lab.system->counts().query - before;
  std::size_t directed_up_edges = 0;
  for (const PeerId peer : lab.peers) {
    if (lab.system->role_of(peer) != NodeRole::kUltrapeer) continue;
    for (const PeerId n : lab.system->neighbors_of(peer)) {
      if (lab.system->role_of(n) == NodeRole::kUltrapeer) ++directed_up_edges;
    }
  }
  EXPECT_LE(sent, directed_up_edges + lab.peers.size());
}

TEST(GnutellaDynamicQuerying, CheaperWhenContentIsEverywhere) {
  // With copies at every ultrapeer, the expanding ring stops at wave 1;
  // a full-TTL flood costs strictly more.
  Config dynamic;
  dynamic.dynamic_querying = true;
  Config full;
  full.dynamic_querying = false;
  Lab dynamic_lab(dynamic);
  Lab full_lab(full);
  const ContentId content(9);
  for (auto* lab : {&dynamic_lab, &full_lab}) {
    for (const PeerId peer : lab->peers) {
      if (lab->system->role_of(peer) == NodeRole::kUltrapeer) {
        lab->system->share(peer, content);
      }
    }
  }
  const auto d = dynamic_lab.system->search(dynamic_lab.peers[1], content,
                                            false);
  const auto f = full_lab.system->search(full_lab.peers[1], content, false);
  EXPECT_TRUE(d.found);
  EXPECT_TRUE(f.found);
  EXPECT_LT(dynamic_lab.system->counts().query,
            full_lab.system->counts().query);
}

// Every node's hostcache holds at most `limit` distinct members of the
// system, never the node itself.
void ExpectHostcacheInvariants(const Lab& lab, std::size_t limit) {
  const std::set<PeerId> members(lab.peers.begin(), lab.peers.end());
  for (const PeerId peer : lab.peers) {
    const auto cache = lab.system->hostcache_of(peer);
    EXPECT_LE(cache.size(), limit) << "peer " << peer.value();
    const std::set<PeerId> distinct(cache.begin(), cache.end());
    EXPECT_EQ(distinct.size(), cache.size())
        << "duplicate in peer " << peer.value() << "'s hostcache";
    EXPECT_FALSE(distinct.contains(peer))
        << "peer " << peer.value() << " caches itself";
    for (const PeerId entry : cache) {
      EXPECT_TRUE(members.contains(entry))
          << "peer " << peer.value() << " caches non-member " << entry.value();
    }
  }
}

std::vector<std::vector<PeerId>> Hostcaches(const Lab& lab) {
  std::vector<std::vector<PeerId>> caches;
  for (const PeerId peer : lab.peers) {
    const auto cache = lab.system->hostcache_of(peer);
    caches.emplace_back(cache.begin(), cache.end());
  }
  return caches;
}

std::size_t ChangedSince(const Lab& lab,
                         const std::vector<std::vector<PeerId>>& before) {
  const auto now = Hostcaches(lab);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < now.size(); ++i) changed += now[i] != before[i];
  return changed;
}

TEST(GnutellaHostcache, NeverExceedsConfiguredSize) {
  // 60 peers against a 12-slot hostcache: Pongs keep bringing unknown
  // addresses, so every cycle exercises random-replacement eviction.
  Config config;
  config.hostcache_size = 12;
  Lab lab(config);
  ExpectHostcacheInvariants(lab, 12);
  const auto before = Hostcaches(lab);
  for (int cycle = 0; cycle < 4; ++cycle) {
    lab.system->ping_cycle();
    ExpectHostcacheInvariants(lab, 12);
  }
  EXPECT_GT(ChangedSince(lab, before), 0u)
      << "no Pong ever replaced a hostcache entry";
}

TEST(GnutellaHostcache, RebootstrapKeepsInvariants) {
  // A second bootstrap refills every hostcache from scratch. With 60
  // peers against a 58-slot hostcache, each refill leaves every node
  // exactly one other peer short, so the first Pong about that peer must
  // replace an entry. Membership state kept from the previous fill would
  // mark the missing peer as cached and freeze every hostcache.
  Config config;
  config.hostcache_size = 58;
  Lab lab(config);
  lab.system->ping_cycle();
  lab.system->bootstrap();
  ExpectHostcacheInvariants(lab, 58);
  const auto refilled = Hostcaches(lab);
  for (const auto& cache : refilled) EXPECT_EQ(cache.size(), 58u);
  for (int cycle = 0; cycle < 4; ++cycle) {
    lab.system->ping_cycle();
    ExpectHostcacheInvariants(lab, 58);
  }
  EXPECT_GT(ChangedSince(lab, refilled), 0u)
      << "no hostcache admitted its missing peer";
}

}  // namespace
}  // namespace uap2p::overlay::gnutella
