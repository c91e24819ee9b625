// Fabric extension (ROADMAP item 1): the multi-tier scenarios the paper's
// dumbbell could not express, on a k=4 fat-tree with per-flow ECMP.
//
//   Phase 1 - N->1 incast: N synchronized senders (spread across all edge
//   switches of a 48-host oversubscribed fat-tree) blast one receiver; sweep
//   N for DCQCN / TIMELY / Patched TIMELY. The victim downlink queue and the
//   FCT spread show how each protocol absorbs the burst.
//
//   Phase 2 - all-to-all shuffle on the canonical 16-host fat-tree: every
//   ordered host pair moves one block at t=0 (240 flows through every ECMP
//   path); completion time, aggregate goodput, and Jain fairness over
//   per-flow throughputs.
//
//   Phase 3 - PFC pause storm: marking off, PFC on, uncontrolled line-rate
//   senders overrun one downlink; pause frames are bucketed by ring (hop
//   distance from the victim edge switch) giving the propagation depth, at
//   default and tight pause thresholds.
//
// Every cell is an independent simulation; the sweep runs on the parallel
// engine and output is byte-identical at any ECND_THREADS. With ECND_JOURNAL
// set, finished cells land in the journal and --resume skips them.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/env_knob.hpp"
#include "exp/fabric.hpp"
#include "obs/manifest.hpp"

using namespace ecnd;

namespace {

constexpr std::uint64_t kSeed = 20161212;  // CoNEXT'16

struct IncastRow {
  std::uint64_t completed = 0;
  std::uint64_t truncated = 0;
  double incast_time_ms = 0.0;
  double median_fct_ms = 0.0;
  double max_fct_ms = 0.0;
  double victim_peak_kb = 0.0;
  double utilization = 0.0;
  std::uint64_t drops = 0;
  std::uint64_t pause_frames = 0;
};

struct ShuffleRow {
  std::uint64_t flows = 0;
  std::uint64_t truncated = 0;
  double shuffle_time_ms = 0.0;
  double goodput_gbps = 0.0;
  double jain = 0.0;
  std::uint64_t drops = 0;
  std::uint64_t pause_frames = 0;
};

// frames_per_ring is padded/truncated to a fixed width so the journal codec
// stays fixed-shape; a k=4 fat-tree has rings 0..4 around an edge switch.
constexpr std::size_t kStormRings = 5;

struct StormRow {
  std::uint64_t depth = 0;
  std::uint64_t hosts_paused = 0;
  std::uint64_t pause_frames = 0;
  double victim_peak_kb = 0.0;
  std::uint64_t drops = 0;
  std::uint64_t ring_frames[kStormRings] = {0, 0, 0, 0, 0};
  // Pause-causality forest (measure_pause_reach): shape plus root-cause and
  // top-offender attribution. The root port is journaled as (switch id, port
  // index) — the codec has no string fields — and the display name is
  // rebuilt with sim::switch_port_name.
  std::uint64_t tree_nodes = 0;
  std::uint64_t tree_depth = 0;
  std::uint64_t tree_roots = 0;
  std::uint64_t tree_max_children = 0;
  std::uint64_t root_flow = 0;
  std::uint64_t root_switch = 0;
  std::uint64_t root_port = 0;
  std::uint64_t root_at_victim = 0;
  std::uint64_t top_flow = 0;
  std::uint64_t top_pauses = 0;
};

sim::FabricConfig incast_fabric() {
  sim::FabricConfig config;
  config.k = 4;
  config.hosts_per_edge = 6;  // 48 hosts, 3:1 oversubscribed at the edge
  config.red.enabled = true;
  config.pfc.enabled = true;
  return config;
}

sim::FabricConfig shuffle_fabric() {
  sim::FabricConfig config;
  config.k = 4;  // canonical: 16 hosts, 2 per edge
  config.red.enabled = true;
  config.pfc.enabled = true;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepContext ctx(argc, argv);
  bench::banner("Fabric extension - incast / shuffle / pause storm",
                "beyond the paper: k=4 fat-tree with per-flow ECMP");

  const bool quick = env::quick();
  const std::vector<int> incast_n =
      quick ? std::vector<int>{8, 32} : std::vector<int>{8, 16, 32, 47};
  const Bytes incast_bytes = kilobytes(quick ? 128.0 : 256.0);
  const Bytes shuffle_bytes = kilobytes(quick ? 32.0 : 64.0);
  const std::vector<exp::Protocol> protocols = {
      exp::Protocol::kDcqcn, exp::Protocol::kTimely,
      exp::Protocol::kPatchedTimely};

  obs::RunManifest manifest("ext_fabric");
  manifest.param("seed", static_cast<std::int64_t>(kSeed))
      .param("quick", quick)
      .param("incast_hosts", std::int64_t{48})
      .param("shuffle_hosts", std::int64_t{16});

  // ---- Phase 1: N->1 incast sweep --------------------------------------
  struct IncastPoint {
    int n = 0;
    exp::Protocol protocol = exp::Protocol::kDcqcn;
  };
  std::vector<IncastPoint> incast_grid;
  for (int n : incast_n) {
    for (exp::Protocol protocol : protocols) incast_grid.push_back({n, protocol});
  }
  std::vector<std::string> incast_cells;
  for (const IncastPoint& point : incast_grid) {
    char cell[96];
    std::snprintf(cell, sizeof(cell),
                  "ext_fabric|incast|%s|n=%d|bytes=%lld|seed=%llu",
                  exp::protocol_key(point.protocol), point.n,
                  static_cast<long long>(incast_bytes),
                  static_cast<unsigned long long>(kSeed));
    incast_cells.push_back(cell);
  }
  const auto incast_sweep = journaled_map<IncastRow>(
      ctx.journal(), incast_cells,
      [&](std::size_t i, int) {
        exp::IncastConfig config;
        config.protocol = incast_grid[i].protocol;
        config.fabric = incast_fabric();
        config.senders = incast_grid[i].n;
        config.bytes_per_sender = incast_bytes;
        config.seed = kSeed;
        const exp::IncastResult result = exp::run_incast(config);
        IncastRow row;
        row.completed = static_cast<std::uint64_t>(result.completed);
        row.truncated = static_cast<std::uint64_t>(result.truncated);
        row.incast_time_ms = result.incast_time_ms;
        row.median_fct_ms = result.median_fct_ms;
        row.max_fct_ms = result.max_fct_ms;
        row.victim_peak_kb = result.victim_queue_peak_kb;
        row.utilization = result.utilization;
        row.drops = result.drops;
        row.pause_frames = result.pause_frames;
        return row;
      },
      [](const IncastRow& r) {
        FieldWriter w;
        w.u(r.completed).u(r.truncated).f(r.incast_time_ms).f(r.median_fct_ms);
        w.f(r.max_fct_ms).f(r.victim_peak_kb).f(r.utilization).u(r.drops);
        w.u(r.pause_frames);
        return w.str();
      },
      [](FieldParser& p) {
        IncastRow r;
        r.completed = p.u();
        r.truncated = p.u();
        r.incast_time_ms = p.f();
        r.median_fct_ms = p.f();
        r.max_fct_ms = p.f();
        r.victim_peak_kb = p.f();
        r.utilization = p.f();
        r.drops = p.u();
        r.pause_frames = p.u();
        return r;
      },
      // One attempt: a cell is a pure function of its index, so a retry
      // would fail the same way.
      par::FaultPolicy{1});
  bench::report_timing("ext_fabric.incast", incast_sweep.report.timing);
  bench::report_journal("ext_fabric.incast", ctx.journal(), incast_sweep.stats);

  std::cout << "-- N->1 incast, 48-host fat-tree (victim = host 0) --\n";
  Table incast_table({"N", "protocol", "incast (ms)", "median FCT (ms)",
                      "max FCT (ms)", "victim peak (KB)", "util", "truncated",
                      "drops", "pauses"});
  for (std::size_t i = 0; i < incast_grid.size(); ++i) {
    const IncastRow& row = incast_sweep.rows[i];
    incast_table.row()
        .cell(static_cast<long long>(incast_grid[i].n))
        .cell(exp::protocol_name(incast_grid[i].protocol))
        .cell(row.incast_time_ms, 2)
        .cell(row.median_fct_ms, 2)
        .cell(row.max_fct_ms, 2)
        .cell(row.victim_peak_kb, 1)
        .cell(row.utilization, 2)
        .cell(static_cast<long long>(row.truncated))
        .cell(static_cast<long long>(row.drops))
        .cell(static_cast<long long>(row.pause_frames));

    char key[64];
    std::snprintf(key, sizeof(key), ".%s.n%02d",
                  exp::protocol_key(incast_grid[i].protocol), incast_grid[i].n);
    manifest
        .observable("incast_fct_ms" + std::string(key), row.median_fct_ms)
        .observable("incast_time_ms" + std::string(key), row.incast_time_ms)
        .observable("incast_peak_kb" + std::string(key), row.victim_peak_kb)
        .observable("incast_truncated" + std::string(key),
                    static_cast<double>(row.truncated));
  }
  incast_table.print(std::cout);

  // ---- Phase 2: all-to-all shuffle -------------------------------------
  std::vector<std::string> shuffle_cells;
  for (exp::Protocol protocol : protocols) {
    char cell[96];
    std::snprintf(cell, sizeof(cell),
                  "ext_fabric|shuffle|%s|bytes=%lld|seed=%llu",
                  exp::protocol_key(protocol),
                  static_cast<long long>(shuffle_bytes),
                  static_cast<unsigned long long>(kSeed));
    shuffle_cells.push_back(cell);
  }
  const auto shuffle_sweep = journaled_map<ShuffleRow>(
      ctx.journal(), shuffle_cells,
      [&](std::size_t i, int) {
        exp::ShuffleConfig config;
        config.protocol = protocols[i];
        config.fabric = shuffle_fabric();
        config.bytes_per_pair = shuffle_bytes;
        config.seed = kSeed;
        const exp::ShuffleResult result = exp::run_shuffle(config);
        ShuffleRow row;
        row.flows = static_cast<std::uint64_t>(result.flows);
        row.truncated = static_cast<std::uint64_t>(result.truncated);
        row.shuffle_time_ms = result.shuffle_time_ms;
        row.goodput_gbps = result.goodput_gbps;
        row.jain = result.jain;
        row.drops = result.drops;
        row.pause_frames = result.pause_frames;
        return row;
      },
      [](const ShuffleRow& r) {
        FieldWriter w;
        w.u(r.flows).u(r.truncated).f(r.shuffle_time_ms).f(r.goodput_gbps);
        w.f(r.jain).u(r.drops).u(r.pause_frames);
        return w.str();
      },
      [](FieldParser& p) {
        ShuffleRow r;
        r.flows = p.u();
        r.truncated = p.u();
        r.shuffle_time_ms = p.f();
        r.goodput_gbps = p.f();
        r.jain = p.f();
        r.drops = p.u();
        r.pause_frames = p.u();
        return r;
      },
      // One attempt: a cell is a pure function of its index, so a retry
      // would fail the same way.
      par::FaultPolicy{1});
  bench::report_timing("ext_fabric.shuffle", shuffle_sweep.report.timing);
  bench::report_journal("ext_fabric.shuffle", ctx.journal(),
                        shuffle_sweep.stats);

  std::cout << "\n-- all-to-all shuffle, 16-host fat-tree (240 flows) --\n";
  Table shuffle_table({"protocol", "flows", "shuffle (ms)", "goodput (Gb/s)",
                       "Jain", "truncated", "drops", "pauses"});
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const ShuffleRow& row = shuffle_sweep.rows[i];
    shuffle_table.row()
        .cell(exp::protocol_name(protocols[i]))
        .cell(static_cast<long long>(row.flows))
        .cell(row.shuffle_time_ms, 2)
        .cell(row.goodput_gbps, 2)
        .cell(row.jain, 3)
        .cell(static_cast<long long>(row.truncated))
        .cell(static_cast<long long>(row.drops))
        .cell(static_cast<long long>(row.pause_frames));

    const std::string key = std::string(".") + exp::protocol_key(protocols[i]);
    manifest.observable("shuffle_time_ms" + key, row.shuffle_time_ms)
        .observable("shuffle_goodput_gbps" + key, row.goodput_gbps)
        .observable("shuffle_jain" + key, row.jain)
        .observable("shuffle_truncated" + key,
                    static_cast<double>(row.truncated));
  }
  shuffle_table.print(std::cout);

  // ---- Phase 3: PFC pause storm ----------------------------------------
  struct StormPoint {
    const char* label;
    Bytes pause_threshold;
    Bytes resume_threshold;
  };
  const std::vector<StormPoint> storm_grid = {
      {"default", kilobytes(256.0), kilobytes(192.0)},
      {"tight", kilobytes(64.0), kilobytes(32.0)},
  };
  std::vector<std::string> storm_cells;
  for (const StormPoint& point : storm_grid) {
    char cell[96];
    // v2: rows gained the pause-causality tree fields; the version tag keeps
    // pre-tree journal entries from being replayed into the wider codec.
    std::snprintf(cell, sizeof(cell),
                  "ext_fabric|storm|v2|%s|pause=%lld|resume=%lld|seed=%llu",
                  point.label, static_cast<long long>(point.pause_threshold),
                  static_cast<long long>(point.resume_threshold),
                  static_cast<unsigned long long>(kSeed));
    storm_cells.push_back(cell);
  }
  const auto storm_sweep = journaled_map<StormRow>(
      ctx.journal(), storm_cells,
      [&](std::size_t i, int) {
        exp::PauseStormConfig config;
        config.fabric = incast_fabric();
        config.fabric.pfc.pause_threshold = storm_grid[i].pause_threshold;
        config.fabric.pfc.resume_threshold = storm_grid[i].resume_threshold;
        config.senders = quick ? 8 : 16;
        config.bytes_per_sender = megabytes(1.0);
        config.duration_s = 0.01;
        config.seed = kSeed;
        const exp::PauseStormResult result = exp::run_pause_storm(config);
        StormRow row;
        row.depth = static_cast<std::uint64_t>(result.reach.depth);
        row.hosts_paused =
            static_cast<std::uint64_t>(result.reach.hosts_paused);
        row.pause_frames = result.pause_frames;
        row.victim_peak_kb = result.victim_queue_peak_kb;
        row.drops = result.drops;
        for (std::size_t ring = 0;
             ring < kStormRings && ring < result.reach.frames_per_ring.size();
             ++ring) {
          row.ring_frames[ring] = result.reach.frames_per_ring[ring];
        }
        const sim::PauseReach& reach = result.reach;
        row.tree_nodes = static_cast<std::uint64_t>(reach.tree.size());
        row.tree_depth = static_cast<std::uint64_t>(reach.tree_depth);
        row.tree_roots = static_cast<std::uint64_t>(reach.tree_roots);
        row.tree_max_children =
            static_cast<std::uint64_t>(reach.tree_max_children);
        row.root_flow = reach.root_cause_flow;
        row.root_switch = reach.root_cause_switch >= 0
                              ? static_cast<std::uint64_t>(
                                    reach.root_cause_switch)
                              : 0;
        row.root_port = reach.root_cause_port >= 0
                            ? static_cast<std::uint64_t>(reach.root_cause_port)
                            : 0;
        row.root_at_victim = reach.root_at_victim_edge ? 1 : 0;
        row.top_flow = reach.top_offender_flow;
        row.top_pauses = reach.top_offender_pauses;
        return row;
      },
      [](const StormRow& r) {
        FieldWriter w;
        w.u(r.depth).u(r.hosts_paused).u(r.pause_frames).f(r.victim_peak_kb);
        w.u(r.drops);
        for (std::uint64_t frames : r.ring_frames) w.u(frames);
        w.u(r.tree_nodes).u(r.tree_depth).u(r.tree_roots);
        w.u(r.tree_max_children).u(r.root_flow).u(r.root_switch);
        w.u(r.root_port).u(r.root_at_victim).u(r.top_flow).u(r.top_pauses);
        return w.str();
      },
      [](FieldParser& p) {
        StormRow r;
        r.depth = p.u();
        r.hosts_paused = p.u();
        r.pause_frames = p.u();
        r.victim_peak_kb = p.f();
        r.drops = p.u();
        for (std::uint64_t& frames : r.ring_frames) frames = p.u();
        r.tree_nodes = p.u();
        r.tree_depth = p.u();
        r.tree_roots = p.u();
        r.tree_max_children = p.u();
        r.root_flow = p.u();
        r.root_switch = p.u();
        r.root_port = p.u();
        r.root_at_victim = p.u();
        r.top_flow = p.u();
        r.top_pauses = p.u();
        return r;
      },
      // One attempt: a cell is a pure function of its index, so a retry
      // would fail the same way.
      par::FaultPolicy{1});
  bench::report_timing("ext_fabric.storm", storm_sweep.report.timing);
  bench::report_journal("ext_fabric.storm", ctx.journal(), storm_sweep.stats);

  std::cout << "\n-- PFC pause storm, 48-host fat-tree (rings = hops from "
               "victim edge) --\n";
  Table storm_table({"thresholds", "depth", "hosts paused", "pauses r0",
                     "pauses r1", "pauses r2", "pauses r3+", "peak (KB)",
                     "drops"});
  for (std::size_t i = 0; i < storm_grid.size(); ++i) {
    const StormRow& row = storm_sweep.rows[i];
    storm_table.row()
        .cell(storm_grid[i].label)
        .cell(static_cast<long long>(row.depth))
        .cell(static_cast<long long>(row.hosts_paused))
        .cell(static_cast<long long>(row.ring_frames[0]))
        .cell(static_cast<long long>(row.ring_frames[1]))
        .cell(static_cast<long long>(row.ring_frames[2]))
        .cell(static_cast<long long>(row.ring_frames[3] + row.ring_frames[4]))
        .cell(row.victim_peak_kb, 1)
        .cell(static_cast<long long>(row.drops));

    const std::string key = std::string(".") + storm_grid[i].label;
    manifest
        .observable("pause_depth" + key, static_cast<double>(row.depth))
        .observable("pause_hosts" + key,
                    static_cast<double>(row.hosts_paused))
        .observable("pause_frames" + key,
                    static_cast<double>(row.pause_frames))
        .observable("storm_drops" + key, static_cast<double>(row.drops))
        .observable("pause_tree_nodes" + key,
                    static_cast<double>(row.tree_nodes))
        .observable("pause_tree_depth" + key,
                    static_cast<double>(row.tree_depth))
        .observable("pause_tree_roots" + key,
                    static_cast<double>(row.tree_roots))
        .observable("pause_tree_max_children" + key,
                    static_cast<double>(row.tree_max_children))
        .observable("storm_root_flow" + key,
                    static_cast<double>(row.root_flow))
        .observable("storm_root_at_victim" + key, row.root_at_victim != 0)
        .observable("storm_top_offender_pauses" + key,
                    static_cast<double>(row.top_pauses));
  }
  storm_table.print(std::cout);

  // Root-cause attribution: the causal forest stitched from per-pause parent
  // edges. "root port" is the congested egress whose backpressure started the
  // storm; "root flow" / "top offender" name the flows that triggered it.
  std::cout << "\n-- pause causality (rooted trees from per-pause parent "
               "edges) --\n";
  Table cause_table({"thresholds", "tree nodes", "tree depth", "roots",
                     "max children", "root port", "root flow", "at victim",
                     "top offender", "its pauses"});
  for (std::size_t i = 0; i < storm_grid.size(); ++i) {
    const StormRow& row = storm_sweep.rows[i];
    cause_table.row()
        .cell(storm_grid[i].label)
        .cell(static_cast<long long>(row.tree_nodes))
        .cell(static_cast<long long>(row.tree_depth))
        .cell(static_cast<long long>(row.tree_roots))
        .cell(static_cast<long long>(row.tree_max_children))
        .cell(row.tree_nodes > 0
                  ? sim::switch_port_name(static_cast<int>(row.root_switch),
                                          static_cast<int>(row.root_port))
                  : std::string("-"))
        .cell(static_cast<long long>(row.root_flow))
        .cell(row.tree_nodes > 0 ? (row.root_at_victim != 0 ? "yes" : "no")
                                 : "-")
        .cell(static_cast<long long>(row.top_flow))
        .cell(static_cast<long long>(row.top_pauses));
  }
  cause_table.print(std::cout);

  bench::record_failures("ext_fabric.incast", incast_cells,
                         incast_sweep.report, manifest);
  bench::record_failures("ext_fabric.shuffle", shuffle_cells,
                         shuffle_sweep.report, manifest);
  bench::record_failures("ext_fabric.storm", storm_cells, storm_sweep.report,
                         manifest);
  manifest.write_if_requested();
  std::cout << "\n(set ECND_QUICK=1 for a faster run; ECND_THREADS=k caps the "
               "sweep's workers)\n";
  return incast_sweep.report.all_ok() && shuffle_sweep.report.all_ok() &&
                 storm_sweep.report.all_ok()
             ? 0
             : 1;
}
