#pragma once
// Network container: owns the simulator, RNG, and all nodes; wires up
// full-duplex links; computes static routes; and provides the dumbbell
// topology of the paper's Figure 13 plus periodic queue monitoring.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rng.hpp"
#include "core/timeseries.hpp"
#include "sim/host.hpp"
#include "sim/switch.hpp"

namespace ecnd::sim {

/// Display name of switch `switch_id`'s egress port `port` under the wiring
/// convention used by Network::add_switch (ids start at 1000, name
/// "sw<id-1000>") and Switch::add_port (":p<index>"). Lets journaled rows
/// that can only store numbers (the journal's FieldWriter has no string
/// fields) reconstruct the human-readable port name at print time.
inline std::string switch_port_name(int switch_id, int port) {
  return "sw" + std::to_string(switch_id - 1000) + ":p" + std::to_string(port);
}

class Network {
 public:
  explicit Network(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator& sim() { return sim_; }
  Rng& rng() { return rng_; }

  Host& add_host(const HostConfig& config = {});
  Switch& add_switch();

  /// Full-duplex host<->switch attachment.
  void link(Host& host, Switch& sw, BitsPerSecond rate, PicoTime propagation);
  /// Full-duplex switch<->switch trunk.
  void link(Switch& a, Switch& b, BitsPerSecond rate, PicoTime propagation);

  /// Populate every switch's routing table (call after all link()s; safe to
  /// re-call after adding links — tables are rebuilt from scratch). Per-host
  /// BFS over the switch graph records *every* equal-cost next-hop, in link
  /// wiring order, so multi-path fabrics (Clos/fat-tree) get deterministic
  /// ECMP candidate sets; single-path graphs behave exactly as before.
  void build_routes();

  /// Seed the per-switch ECMP hashes. Each switch derives its own seed from
  /// (seed, switch id) so tiers don't polarize; applies to existing switches
  /// and to any added later. Default seed 0 keeps legacy runs unchanged.
  void set_ecmp_seed(std::uint64_t seed);

  /// Hop distance from `origin` to every other switch (BFS over trunk links;
  /// origin is 0, unreachable switches absent). Pause-storm studies use this
  /// to bucket pause frames into rings around the victim edge.
  std::unordered_map<const Switch*, int> switch_distances(
      const Switch& origin) const;

  const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }
  const std::vector<std::unique_ptr<Switch>>& switches() const { return switches_; }

  /// Sample `port`'s total queued bytes every `interval` until `until`,
  /// recording into `series` (time in seconds).
  void monitor_queue(const Port& port, PicoTime interval, PicoTime until,
                     TimeSeries& series);

  /// Total packets dropped across every port in the network.
  std::uint64_t total_drops() const;

 private:
  struct SwitchEdge {
    int port;        // port index on `from`
    Switch* from;
    Node* to;        // Host or Switch
  };

  Simulator sim_;
  Rng rng_;
  std::uint64_t ecmp_seed_ = 0;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<SwitchEdge> edges_;
};

/// The classic dumbbell of Figure 13: `pairs` senders on SW1, `pairs`
/// receivers on SW2, one bottleneck trunk SW1->SW2. Senders are hosts
/// [0, pairs), receivers [pairs, 2*pairs).
struct Dumbbell {
  Network* net = nullptr;
  Switch* sw1 = nullptr;
  Switch* sw2 = nullptr;
  int trunk_port = -1;  ///< SW1's egress port onto the bottleneck
  std::vector<Host*> senders;
  std::vector<Host*> receivers;

  Port& bottleneck() { return sw1->port(trunk_port); }
};

struct DumbbellConfig {
  int pairs = 10;
  BitsPerSecond link_rate = gbps(10.0);
  PicoTime link_delay = microseconds(1.0);
  HostConfig host;
  RedConfig red;   ///< applied to every switch port
  PfcConfig pfc;   ///< applied to both switches
};

Dumbbell make_dumbbell(Network& net, const DumbbellConfig& config);

/// The validation topology of Figures 2 and 8: N senders and one receiver on
/// a single switch; the bottleneck is the switch's port to the receiver.
struct Star {
  Network* net = nullptr;
  Switch* sw = nullptr;
  int receiver_port = -1;  ///< switch egress port toward the receiver
  std::vector<Host*> senders;
  Host* receiver = nullptr;

  Port& bottleneck() { return sw->port(receiver_port); }
};

struct StarConfig {
  int senders = 2;
  BitsPerSecond link_rate = gbps(10.0);
  PicoTime sender_link_delay = microseconds(1.0);
  /// Delay of the receiver link: the dominant share of the feedback loop
  /// when studying large control delays (Figures 5 and 17).
  PicoTime receiver_link_delay = microseconds(1.0);
  HostConfig host;
  RedConfig red;
  PfcConfig pfc;
};

Star make_star(Network& net, const StarConfig& config);

/// Multi-bottleneck "parking lot" (the paper's §7 future-work scenario):
/// a chain SW0 - SW1 - SW2 with two trunk bottlenecks. Three flow classes:
///   long:  sender on SW0 -> receiver on SW2 (crosses both trunks)
///   left:  sender on SW0 -> receiver on SW1 (first trunk only)
///   right: sender on SW1 -> receiver on SW2 (second trunk only)
struct ParkingLot {
  Network* net = nullptr;
  std::vector<Switch*> switches;  // SW0, SW1, SW2
  int trunk01 = -1;  ///< SW0's egress port toward SW1
  int trunk12 = -1;  ///< SW1's egress port toward SW2
  Host* long_sender = nullptr;
  Host* left_sender = nullptr;
  Host* right_sender = nullptr;
  Host* long_receiver = nullptr;
  Host* left_receiver = nullptr;
  Host* right_receiver = nullptr;

  Port& first_bottleneck() { return switches[0]->port(trunk01); }
  Port& second_bottleneck() { return switches[1]->port(trunk12); }
};

struct ParkingLotConfig {
  BitsPerSecond link_rate = gbps(10.0);
  PicoTime link_delay = microseconds(1.0);
  HostConfig host;
  RedConfig red;
  PfcConfig pfc;
};

ParkingLot make_parking_lot(Network& net, const ParkingLotConfig& config);

}  // namespace ecnd::sim
