// TrafficMatrix contract tests: opt-in recording, per-pair accumulation,
// window alignment of the per-AS billing series, deterministic sorted
// export, and end-to-end feeding from Network::send.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "underlay/cost.hpp"
#include "underlay/network.hpp"
#include "underlay/topology.hpp"

namespace uap2p::underlay {
namespace {

PathInfo transit_path(std::uint32_t transit, std::uint32_t peering) {
  PathInfo path;
  path.reachable = true;
  path.transit_crossings = transit;
  path.peering_crossings = peering;
  path.as_crossings = transit + peering;
  return path;
}

TEST(TrafficMatrix, DisabledMatrixCostsNothingAndRecordsNothing) {
  TrafficAccountant accountant;
  EXPECT_FALSE(accountant.matrix().enabled());
  accountant.record(transit_path(1, 0), 100, 0.0, /*src_as=*/0, /*dst_as=*/1);
  EXPECT_EQ(accountant.total_bytes(), 100u);  // scalar totals still counted
  EXPECT_EQ(accountant.matrix().pair_count(), 0u);
}

TEST(TrafficMatrix, RecordAccumulatesPairCellsAndWindowSeries) {
  TrafficMatrix matrix;
  matrix.enable(/*as_count=*/4, /*window_ms=*/1000.0);
  matrix.record(0, 2, transit_path(2, 1), 100, /*now=*/0.0);
  matrix.record(0, 2, transit_path(2, 1), 50, /*now=*/2500.0);
  matrix.record(2, 0, transit_path(1, 0), 10, /*now=*/100.0);

  ASSERT_EQ(matrix.pair_count(), 2u);
  const TrafficMatrix::PairCell* cell = matrix.cell(0, 2);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->bytes, 150u);
  EXPECT_EQ(cell->messages, 2u);
  EXPECT_EQ(cell->transit_link_bytes, 300u);  // bytes x transit crossings
  EXPECT_EQ(cell->peering_link_bytes, 150u);
  EXPECT_EQ(matrix.cell(2, 0)->transit_link_bytes, 10u);
  EXPECT_EQ(matrix.cell(1, 3), nullptr);  // untouched pair costs nothing

  const Pricing pricing;
  EXPECT_GT(matrix.billed_transit_mbps(0, pricing), 0.0);
  EXPECT_GT(matrix.billed_transit_mbps(2, pricing), 0.0);
  EXPECT_EQ(matrix.billed_transit_mbps(3, pricing), 0.0);
}

TEST(TrafficMatrix, ExportIsSortedAndWindowAligned) {
  TrafficMatrix matrix;
  matrix.enable(3, 1000.0);
  // Register pairs out of (src, dst) order; export must sort them.
  matrix.record(2, 1, transit_path(1, 0), 7, 0.0);
  matrix.record(0, 1, transit_path(1, 0), 5, 1500.0);

  obs::MetricsRegistry registry;
  matrix.export_metrics(registry, Pricing{});
  const std::string json = registry.to_json();
  EXPECT_LT(json.find("traffic.pair.0.1.bytes"),
            json.find("traffic.pair.2.1.bytes"))
      << json;
  // AS 0's transit landed in window 1: [1000, 2000) with value 5.
  EXPECT_NE(json.find("\"name\": \"traffic.as.0.transit_bytes\", "
                      "\"window_ms\": 1000, \"windows\": [{\"start\": 0, "
                      "\"end\": 1000, \"value\": 0}, {\"start\": 1000, "
                      "\"end\": 2000, \"value\": 5}]"),
            std::string::npos)
      << json;
  // Exports are idempotent sets: a second export must not change bytes.
  obs::MetricsRegistry again;
  matrix.export_metrics(again, Pricing{});
  matrix.export_metrics(again, Pricing{});
  EXPECT_EQ(json, again.to_json());
}

TEST(TrafficMatrix, NetworkSendFeedsTheMatrix) {
  // End to end through Network: AS-attributed send() records must land in
  // the matrix with the topology's AS ids.
  sim::Engine engine;
  const AsTopology topo = AsTopology::transit_stub(2, 3, 0.3);
  Network net(engine, topo, /*seed=*/5);
  const auto peers = net.populate(12);
  net.enable_traffic_matrix();
  ASSERT_TRUE(net.traffic().matrix().enabled());

  Message msg;
  msg.src = peers[0];
  msg.dst = peers[peers.size() - 1];
  msg.size_bytes = 1000;
  net.send(std::move(msg));
  engine.run();

  const TrafficMatrix& matrix = net.traffic().matrix();
  ASSERT_EQ(matrix.pair_count(), 1u);
  const auto cells = matrix.sorted_cells();
  EXPECT_EQ(cells[0].src_as, net.host(peers[0]).as.value());
  EXPECT_EQ(cells[0].dst_as, net.host(peers.back()).as.value());
  EXPECT_EQ(cells[0].bytes, 1000u);
  EXPECT_EQ(cells[0].messages, 1u);
}

}  // namespace
}  // namespace uap2p::underlay
