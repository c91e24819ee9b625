#include <gtest/gtest.h>

#include "exp/fabric.hpp"
#include "sim/topology.hpp"

namespace ecnd::sim {
namespace {

class FixedRate final : public RateController {
 public:
  explicit FixedRate(BitsPerSecond rate) : rate_(rate) {}
  BitsPerSecond rate() const override { return rate_; }
  Bytes chunk_bytes() const override { return 1000; }
  bool burst_pacing() const override { return false; }
  bool wants_rtt() const override { return false; }

 private:
  BitsPerSecond rate_;
};

RateControllerFactory fixed_factory(BitsPerSecond rate) {
  return [=](int) { return std::make_unique<FixedRate>(rate); };
}

TEST(FatTree, CanonicalK4Shape) {
  Network net(1);
  Fabric fabric = make_fat_tree(net, FabricConfig{});
  EXPECT_EQ(fabric.cores.size(), 4u);   // (k/2)^2
  EXPECT_EQ(fabric.aggs.size(), 8u);    // k * k/2
  EXPECT_EQ(fabric.edges.size(), 8u);
  EXPECT_EQ(fabric.hosts.size(), 16u);  // k^3 / 4
  EXPECT_EQ(fabric.hosts_per_edge, 2);

  // Every switch can reach every host.
  auto check_tier = [&](const std::vector<Switch*>& tier) {
    for (const Switch* sw : tier) {
      for (const Host* host : fabric.hosts) {
        EXPECT_TRUE(sw->has_route(host->id())) << sw->name();
      }
    }
  };
  check_tier(fabric.edges);
  check_tier(fabric.aggs);
  check_tier(fabric.cores);
}

TEST(FatTree, HostsPerEdgeOverrideGives48Hosts) {
  Network net(1);
  FabricConfig config;
  config.hosts_per_edge = 6;
  Fabric fabric = make_fat_tree(net, config);
  EXPECT_EQ(fabric.hosts.size(), 48u);
  // Host group layout matches host_edge/host_port bookkeeping.
  for (std::size_t h = 0; h < fabric.hosts.size(); ++h) {
    EXPECT_EQ(fabric.host_edge[h], static_cast<int>(h) / 6);
  }
}

TEST(FatTree, EqualCostSetSizesMatchTheTopology) {
  Network net(1);
  Fabric fabric = make_fat_tree(net, FabricConfig{});
  const Host* local = fabric.hosts[0];    // edge 0, pod 0
  const Host* remote = fabric.hosts[15];  // edge 7, pod 3

  // Edge 0 -> same-edge host: the single direct downlink.
  EXPECT_EQ(fabric.edges[0]->route_ports(local->id()).size(), 1u);
  // Edge 0 -> cross-pod host: both aggregation uplinks are equal cost.
  EXPECT_EQ(fabric.edges[0]->route_ports(remote->id()).size(), 2u);
  // Agg 0 -> cross-pod host: both core uplinks are equal cost.
  EXPECT_EQ(fabric.aggs[0]->route_ports(remote->id()).size(), 2u);
  // A core has exactly one downlink into each pod.
  for (const Switch* core : fabric.cores) {
    EXPECT_EQ(core->route_ports(remote->id()).size(), 1u);
  }
}

TEST(FatTree, RouteSetsAreDeterministicAcrossRebuilds) {
  auto snapshot = [](std::uint64_t seed) {
    Network net(seed);
    FabricConfig config;
    config.ecmp_seed = 42;
    Fabric fabric = make_fat_tree(net, config);
    std::vector<std::vector<int>> routes;
    for (const Switch* sw : fabric.edges) {
      for (const Host* host : fabric.hosts) {
        routes.push_back(sw->route_ports(host->id()));
      }
    }
    for (const Switch* sw : fabric.aggs) {
      for (const Host* host : fabric.hosts) {
        routes.push_back(sw->route_ports(host->id()));
      }
    }
    return routes;
  };
  EXPECT_EQ(snapshot(1), snapshot(1));
  EXPECT_EQ(snapshot(1), snapshot(9));  // wiring, not RNG, fixes the order
}

TEST(FatTree, BuildRoutesIsIdempotent) {
  Network net(1);
  Fabric fabric = make_fat_tree(net, FabricConfig{});
  const std::vector<int> before =
      fabric.edges[0]->route_ports(fabric.hosts[15]->id());
  net.build_routes();
  net.build_routes();
  EXPECT_EQ(fabric.edges[0]->route_ports(fabric.hosts[15]->id()), before);
}

TEST(EcmpHash, IsAPureSeededFunction) {
  const std::uint64_t h = ecmp_hash(7, 1, 2, 42);
  EXPECT_EQ(h, ecmp_hash(7, 1, 2, 42));
  EXPECT_NE(h, ecmp_hash(8, 1, 2, 42));   // seed matters
  EXPECT_NE(h, ecmp_hash(7, 2, 1, 42));   // direction matters
  EXPECT_NE(h, ecmp_hash(7, 1, 2, 43));   // per-flow, not per-pair
}

TEST(Ecmp, SpreadsFlowsAcrossBothUplinks) {
  Network net(1);
  Fabric fabric = make_fat_tree(net, FabricConfig{});
  Host* src = fabric.hosts[0];
  Host* dst = fabric.hosts[15];  // cross-pod: 2 uplink choices at the edge
  src->set_controller_factory(fixed_factory(gbps(10.0)));
  for (int flow = 0; flow < 32; ++flow) {
    src->start_flow(dst->id(), kilobytes(4.0));
  }
  net.sim().run_until(seconds(0.05));

  const std::vector<int>& uplinks =
      fabric.edges[0]->route_ports(dst->id());
  ASSERT_EQ(uplinks.size(), 2u);
  for (int port : uplinks) {
    EXPECT_GT(fabric.edges[0]->port(port).tx_packets(), 0u)
        << "32 flows should hash onto both equal-cost uplinks";
  }
}

TEST(Ecmp, FlowsArriveInOrderAndComplete) {
  // Per-flow (not per-packet) hashing: every packet of a flow takes one path,
  // so all 32 cross-pod flows complete despite multipath.
  Network net(1);
  Fabric fabric = make_fat_tree(net, FabricConfig{});
  Host* src = fabric.hosts[0];
  Host* dst = fabric.hosts[15];
  src->set_controller_factory(fixed_factory(gbps(10.0)));
  int completed = 0;
  dst->on_flow_complete = [&](const FlowRecord& record) {
    EXPECT_EQ(record.size, kilobytes(4.0));
    ++completed;
  };
  for (int flow = 0; flow < 32; ++flow) {
    src->start_flow(dst->id(), kilobytes(4.0));
  }
  net.sim().run_until(seconds(0.05));
  EXPECT_EQ(completed, 32);
  EXPECT_EQ(net.total_drops(), 0u);
}

TEST(BuildRoutes, DiamondRecordsBothEqualCostPathsInWiringOrder) {
  // hostA - sw0 - {sw1, sw2} - sw3 - hostB: two equal-cost 3-hop paths.
  Network net(1);
  Switch& sw0 = net.add_switch();
  Switch& sw1 = net.add_switch();
  Switch& sw2 = net.add_switch();
  Switch& sw3 = net.add_switch();
  Host& a = net.add_host();
  Host& b = net.add_host();
  net.link(a, sw0, gbps(10.0), microseconds(1.0));
  net.link(b, sw3, gbps(10.0), microseconds(1.0));
  const int sw0_to_sw1 = sw0.num_ports();
  net.link(sw0, sw1, gbps(10.0), microseconds(1.0));
  const int sw0_to_sw2 = sw0.num_ports();
  net.link(sw0, sw2, gbps(10.0), microseconds(1.0));
  net.link(sw1, sw3, gbps(10.0), microseconds(1.0));
  net.link(sw2, sw3, gbps(10.0), microseconds(1.0));
  net.build_routes();

  // Both next-hops recorded, in link-wiring order (sw1 first).
  const std::vector<int> expected = {sw0_to_sw1, sw0_to_sw2};
  EXPECT_EQ(sw0.route_ports(b.id()), expected);
  // The far switch symmetrically has two paths back to a.
  EXPECT_EQ(sw3.route_ports(a.id()).size(), 2u);
  // Mid switches have a single shortest next-hop each way.
  EXPECT_EQ(sw1.route_ports(b.id()).size(), 1u);
  EXPECT_EQ(sw2.route_ports(a.id()).size(), 1u);
}

TEST(BuildRoutes, CyclicTriangleTerminatesWithShortestPaths) {
  // sw0 - sw1 - sw2 - sw0 is a cycle; BFS must terminate and pick the
  // 1-hop route, never the 2-hop detour.
  Network net(1);
  Switch& sw0 = net.add_switch();
  Switch& sw1 = net.add_switch();
  Switch& sw2 = net.add_switch();
  Host& a = net.add_host();
  Host& b = net.add_host();
  net.link(a, sw0, gbps(10.0), microseconds(1.0));
  net.link(b, sw2, gbps(10.0), microseconds(1.0));
  net.link(sw0, sw1, gbps(10.0), microseconds(1.0));
  const int sw1_to_sw2 = sw1.num_ports();
  net.link(sw1, sw2, gbps(10.0), microseconds(1.0));
  const int sw2_to_sw0 = sw2.num_ports();
  net.link(sw2, sw0, gbps(10.0), microseconds(1.0));
  net.build_routes();

  // sw1 -> b: only the direct sw1-sw2 hop is shortest (detour via sw0 is 2).
  const std::vector<int> via_sw2 = {sw1_to_sw2};
  EXPECT_EQ(sw1.route_ports(b.id()), via_sw2);
  // sw2 -> a: direct sw2-sw0 edge, not around the triangle.
  const std::vector<int> via_sw0 = {sw2_to_sw0};
  EXPECT_EQ(sw2.route_ports(a.id()), via_sw0);
}

TEST(FatTree, FctOrdersByHopCount) {
  // Same-edge (2 switch hops... 1 switch) < same-pod (3 switches) <
  // cross-pod (5 switches): more store-and-forward hops, longer FCT.
  auto one_flow_fct = [](int dst_index) {
    Network net(1);
    Fabric fabric = make_fat_tree(net, FabricConfig{});
    Host* src = fabric.hosts[0];
    Host* dst = fabric.hosts[static_cast<std::size_t>(dst_index)];
    src->set_controller_factory(fixed_factory(gbps(10.0)));
    PicoTime fct = 0;
    dst->on_flow_complete = [&](const FlowRecord& r) { fct = r.fct(); };
    src->start_flow(dst->id(), kilobytes(16.0));
    net.sim().run_until(seconds(0.01));
    EXPECT_GT(fct, 0);
    return fct;
  };
  const PicoTime same_edge = one_flow_fct(1);   // host 1 shares edge 0
  const PicoTime same_pod = one_flow_fct(2);    // host 2 is on edge 1, pod 0
  const PicoTime cross_pod = one_flow_fct(15);  // pod 3
  EXPECT_LT(same_edge, same_pod);
  EXPECT_LT(same_pod, cross_pod);
}

TEST(LeafSpine, WiresFullBipartiteFabric) {
  Network net(1);
  FabricConfig config;
  config.kind = FabricConfig::Kind::kLeafSpine;
  config.spines = 3;
  config.leaves = 4;
  config.hosts_per_leaf = 2;
  Fabric fabric = make_leaf_spine(net, config);
  EXPECT_EQ(fabric.cores.size(), 3u);
  EXPECT_EQ(fabric.edges.size(), 4u);
  EXPECT_EQ(fabric.hosts.size(), 8u);
  // Cross-leaf traffic sees every spine as an equal-cost next hop.
  const Host* remote = fabric.hosts[7];
  EXPECT_EQ(fabric.edges[0]->route_ports(remote->id()).size(), 3u);
  // Spines reach each host through exactly one leaf.
  for (const Switch* spine : fabric.cores) {
    EXPECT_EQ(spine->route_ports(remote->id()).size(), 1u);
  }
}

TEST(FabricScenarios, IncastIsDeterministicAndLossless) {
  auto run = [] {
    exp::IncastConfig config;
    config.protocol = exp::Protocol::kDcqcn;
    config.fabric.red.enabled = true;
    config.fabric.pfc.enabled = true;
    config.senders = 8;
    config.bytes_per_sender = kilobytes(64.0);
    config.seed = 5;
    return exp::run_incast(config);
  };
  const exp::IncastResult first = run();
  const exp::IncastResult second = run();
  EXPECT_EQ(first.completed, 8);
  EXPECT_EQ(first.truncated, 0);
  EXPECT_EQ(first.drops, 0u);
  EXPECT_GT(first.incast_time_ms, 0.0);
  EXPECT_GT(first.victim_queue_peak_kb, 0.0);
  // Bit-identical repeatability (the ECMP hash is seeded, not RNG-driven).
  EXPECT_EQ(first.incast_time_ms, second.incast_time_ms);
  EXPECT_EQ(first.median_fct_ms, second.median_fct_ms);
  EXPECT_EQ(first.victim_queue_peak_kb, second.victim_queue_peak_kb);
  EXPECT_EQ(first.pause_frames, second.pause_frames);
}

TEST(FabricScenarios, ShuffleCompletesAllPairsWithoutSelfFlows) {
  exp::ShuffleConfig config;
  config.protocol = exp::Protocol::kDcqcn;
  config.fabric.red.enabled = true;
  config.fabric.pfc.enabled = true;
  config.bytes_per_pair = kilobytes(8.0);
  config.seed = 5;
  const exp::ShuffleResult result = exp::run_shuffle(config);
  EXPECT_EQ(result.flows, 16 * 15);
  EXPECT_EQ(result.truncated, 0);
  EXPECT_EQ(result.drops, 0u);
  EXPECT_GT(result.goodput_gbps, 0.0);
  EXPECT_GT(result.jain, 0.5);
  EXPECT_LE(result.jain, 1.0);
}

TEST(FabricScenarios, PauseStormReportsPropagationDepthAndStaysLossless) {
  exp::PauseStormConfig config;
  config.fabric.hosts_per_edge = 4;  // 32 hosts
  config.fabric.pfc.pause_threshold = kilobytes(64.0);
  config.fabric.pfc.resume_threshold = kilobytes(32.0);
  config.senders = 12;
  config.bytes_per_sender = megabytes(1.0);
  config.duration_s = 0.005;
  config.seed = 5;
  const exp::PauseStormResult result = exp::run_pause_storm(config);
  // 12 uncontrolled senders into one 10G downlink must push pauses at least
  // past the victim edge into the aggregation tier.
  EXPECT_GE(result.reach.depth, 2);
  EXPECT_GT(result.pause_frames, 0u);
  EXPECT_GT(result.reach.hosts_paused, 0);
  EXPECT_EQ(result.drops, 0u) << "PFC must keep the storm lossless";
  ASSERT_GE(result.reach.frames_per_ring.size(), 2u);
  EXPECT_GT(result.reach.frames_per_ring[0], 0u);
}

TEST(PauseReach, LeafSpineTreeRootsAtTheVictimEdgeAndNamesOffenders) {
  // 7 uncontrolled senders overrun one host downlink of a 2x4 leaf-spine.
  // The stitched causality forest must (a) root at the victim leaf, (b) name
  // the victim's downlink as the congested egress, (c) chain at least
  // leaf -> spine deep, and (d) attribute a top-offender flow.
  exp::PauseStormConfig config;
  config.fabric.kind = FabricConfig::Kind::kLeafSpine;
  config.fabric.spines = 2;
  config.fabric.leaves = 4;
  config.fabric.hosts_per_leaf = 4;
  // Trunks faster than host links: the victim's 10G downlink is the only
  // first bottleneck, so the earliest pause must root there (with equal-rate
  // trunks a spine egress toward the victim leaf congests just as fast and
  // the root can land one tier up).
  config.fabric.fabric_link_rate = gbps(40.0);
  config.fabric.pfc.pause_threshold = kilobytes(64.0);
  config.fabric.pfc.resume_threshold = kilobytes(32.0);
  config.senders = 7;
  config.bytes_per_sender = megabytes(1.0);
  config.duration_s = 0.005;
  config.seed = 5;
  const exp::PauseStormResult result = exp::run_pause_storm(config);
  const PauseReach& reach = result.reach;

  ASSERT_FALSE(reach.tree.empty());
  EXPECT_GE(reach.tree_depth, 2) << "pauses must chain leaf -> spine";
  EXPECT_GE(reach.tree_roots, 1);
  EXPECT_GE(reach.tree_max_children, 1);

  // Root-cause attribution: the storm starts at the victim's leaf, on the
  // victim's own downlink port (the only congested egress in this workload).
  EXPECT_TRUE(reach.root_at_victim_edge);
  // attach_hosts wires host downlinks before the spine trunks, so victim
  // host 0's downlink is port 0 of leaf 0 — the congested root egress.
  EXPECT_EQ(reach.root_cause_port, 0)
      << "root egress should be the victim host 0 downlink";
  EXPECT_NE(reach.root_cause_flow, 0u);
  EXPECT_NE(reach.top_offender_flow, 0u);
  EXPECT_GE(reach.top_offender_pauses, 1u);

  // Structural invariants: depths are consistent with parent edges,
  // children counts total nodes minus roots, and every pause names the flow
  // whose arrival crossed the threshold.
  int non_roots = 0;
  for (const PauseTreeNode& node : reach.tree) {
    EXPECT_GE(node.depth, 1);
    EXPECT_LE(node.depth, reach.tree_depth);
    EXPECT_GT(node.cause.trigger_flow, 0u);
    if (node.cause.parent != 0) ++non_roots;
  }
  int children_total = 0;
  for (const PauseTreeNode& node : reach.tree) children_total += node.children;
  EXPECT_EQ(children_total, non_roots);
  EXPECT_EQ(static_cast<int>(reach.tree.size()) - reach.tree_roots, non_roots);
}

TEST(PauseReach, TreeIsEmptyWithoutPfcPressure) {
  // A lightly-loaded incast below the pause threshold produces no causes.
  Network net(1);
  Fabric fabric = make_fat_tree(net, FabricConfig{});
  Host* src = fabric.hosts[1];
  src->set_controller_factory(fixed_factory(gbps(1.0)));
  src->start_flow(fabric.hosts[0]->id(), kilobytes(16.0));
  net.sim().run_until(seconds(0.01));
  const PauseReach reach = measure_pause_reach(fabric, 0);
  EXPECT_TRUE(reach.tree.empty());
  EXPECT_EQ(reach.tree_depth, 0);
  EXPECT_EQ(reach.tree_roots, 0);
  EXPECT_EQ(reach.root_cause_switch, -1);
  EXPECT_FALSE(reach.root_at_victim_edge);
  EXPECT_EQ(reach.top_offender_pauses, 0u);
}

TEST(PauseReach, RingsFollowSwitchDistances) {
  Network net(1);
  Fabric fabric = make_fat_tree(net, FabricConfig{});
  const auto distances = net.switch_distances(*fabric.edges[0]);
  // k=4 fat-tree from an edge: aggs of the pod at 1, cores at 2, other pods'
  // aggs at 3, other pods' edges at 4 — and the same-pod edge at 2.
  EXPECT_EQ(distances.at(fabric.edges[0]), 0);
  EXPECT_EQ(distances.at(fabric.aggs[0]), 1);
  EXPECT_EQ(distances.at(fabric.cores[0]), 2);
  EXPECT_EQ(distances.at(fabric.edges[1]), 2);
  EXPECT_EQ(distances.at(fabric.aggs[7]), 3);
  EXPECT_EQ(distances.at(fabric.edges[7]), 4);
  EXPECT_EQ(distances.size(), fabric.edges.size() + fabric.aggs.size() +
                                  fabric.cores.size());
}

}  // namespace
}  // namespace ecnd::sim
