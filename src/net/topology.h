// Network topology: zones, nodes, links, routing and probe semantics.
//
// The topology captures exactly the structural properties the paper
// measures:
//   * zones with inbound-probe filtering (cellular NAT/firewall policy,
//     §4.4: external probes die at the network ingress),
//   * tunneled links (MPLS/VPN) whose interior hops are invisible to
//     traceroute (§4.2: "widespread tunnelling ... rendered irrelevant much
//     of the structural information"),
//   * per-node probe responsiveness (Verizon / LG U+ external resolvers do
//     not answer pings even from inside, Figs. 4 and 11),
//   * geography-driven latency, so replica choice shows up as TTFB.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/geo.h"
#include "net/ipv4.h"
#include "net/latency.h"
#include "net/rng.h"

namespace curtain::net {

using NodeId = uint32_t;
using ZoneId = uint32_t;
constexpr NodeId kInvalidNode = UINT32_MAX;

enum class NodeKind {
  kRouter,
  kGateway,       ///< cellular egress point (PGW/GGSN)
  kResolver,      ///< DNS resolver (client- or external-facing)
  kAuthServer,    ///< authoritative DNS server
  kReplica,       ///< CDN content replica
  kVantagePoint,  ///< wired measurement host (the "university" probe)
  kDevice,        ///< mobile device anchor (radio handled by cellular::)
};

struct Zone {
  std::string name;
  /// NAT/firewall: drop probes originating outside this zone at ingress.
  bool blocks_inbound_probes = false;
};

struct Node {
  NodeId id = kInvalidNode;
  std::string name;
  NodeKind kind = NodeKind::kRouter;
  ZoneId zone = 0;
  GeoPoint location;
  Ipv4Addr ip;  ///< unspecified (0.0.0.0) if the node has no addressable IP
  /// Organization owning the node (carrier id); 0 = unaffiliated. ICMP
  /// filtering in cellular networks is directional: some resolvers answer
  /// in-network clients only (SK Telecom), others answer only outside
  /// probes (Verizon's external tier, which lives in a separate AS).
  uint32_t owner_tag = 0;
  bool ping_from_same_owner = true;   ///< answer pings from own subscribers
  bool ping_from_other_owner = true;  ///< answer pings from everyone else
  bool responds_to_traceroute = true;

  bool answers_ping_from(uint32_t prober_tag) const {
    return prober_tag == owner_tag ? ping_from_same_owner : ping_from_other_owner;
  }
  /// Local processing delay added to probe/request handling.
  LatencyModel processing = LatencyModel::fixed(0.1);
};

struct PingResult {
  bool responded = false;
  double rtt_ms = 0.0;
  /// Why an unanswered probe died (diagnostics; the client only sees loss).
  enum class Failure { kNone, kNoRoute, kFirewalled, kUnresponsive, kLoss };
  Failure failure = Failure::kNone;
};

struct TracerouteHop {
  NodeId node = kInvalidNode;  ///< kInvalidNode for a silent ("* * *") hop
  double rtt_ms = 0.0;
  bool responded = false;
};

struct TracerouteResult {
  std::vector<TracerouteHop> hops;
  bool reached_destination = false;
};

/// The static graph plus probe semantics.
///
/// Mutation (add_*) happens during world construction and ends with
/// freeze(); measurement runs treat the frozen topology as immutable,
/// share it across workers and thread randomness through `Rng&`.
class Topology {
 public:
  Topology();

  ZoneId add_zone(std::string name, bool blocks_inbound_probes);
  /// node.id is assigned by the topology. Only before freeze().
  NodeId add_node(Node node);
  /// An undirected link: each traversal samples `latency` and is lost with
  /// probability `loss`; a `tunneled` link hides its interior endpoint
  /// from traceroute. Only before freeze().
  void add_link(NodeId a, NodeId b, LatencyModel latency, double loss = 0.0,
                bool tunneled = false);

  /// Closes the graph: no node or link may be added after, and routing may
  /// start. Sizes the route table, one empty shortest-path tree per source
  /// node (see route()). Called once, at the end of World construction or
  /// when a hand-built topology is complete.
  void freeze();
  bool frozen() const { return trees_ != nullptr; }

  const Zone& zone(ZoneId id) const { return zones_[id]; }
  const Node& node(NodeId id) const { return nodes_[id]; }
  Node& mutable_node(NodeId id) { return nodes_[id]; }
  size_t node_count() const { return nodes_.size(); }
  size_t zone_count() const { return zones_.size(); }
  static constexpr ZoneId internet_zone() { return 0; }

  /// Node owning `ip`; kInvalidNode if unknown. Registration happens in
  /// add_node for any node with a non-zero IP.
  NodeId find_by_ip(Ipv4Addr ip) const;

  /// Numbers the world's device-state owners (net/device_state.h):
  /// 0, 1, 2, ... in build order, so one world's owners index a dense
  /// table. Not part of the graph, so legal after freeze().
  uint32_t issue_device_slot() { return device_slots_++; }

  /// Shortest path by typical latency, inclusive of both endpoints; empty
  /// if unreachable. Only after freeze(). Read off the shortest-path tree
  /// rooted at `from`, which the first query from `from` builds, on
  /// whichever thread asks first, and every later query on any thread
  /// reads. The tree keeps one parent link per node, the first
  /// lowest-latency parallel link wherever two nodes have several; routes
  /// are deterministic functions of the frozen graph, so which worker
  /// built a tree never changes a result.
  std::vector<NodeId> route(NodeId from, NodeId to) const;

  /// Round-trip time as measured by a transport exchange (no firewall or
  /// responsiveness checks — used for protocol traffic like DNS, which is
  /// solicited and therefore NAT-traversing). nullopt if no route.
  std::optional<double> transport_rtt_ms(NodeId from, NodeId to, Rng& rng) const;

  /// ICMP echo semantics: firewall zones, per-node responsiveness, loss.
  PingResult ping(NodeId from, NodeId to, Rng& rng) const;

  /// TTL-walking traceroute with tunnel hiding and firewall truncation.
  TracerouteResult traceroute(NodeId from, NodeId to, Rng& rng) const;

  /// First node of the destination zone along the route from `from` to
  /// `to`, i.e. the ingress/egress boundary. kInvalidNode if none.
  NodeId zone_boundary(NodeId from, NodeId to) const;

 private:
  /// One direction of a link, as a route crosses it: from `prev` into
  /// `node`. add_link stores each link as two steps, so a shortest-path
  /// tree names the step that enters each node, and a route reads every
  /// hop's latency and loss from its step.
  struct Step {
    LatencyModel latency;
    double loss = 0.0;
    NodeId prev = kInvalidNode;
    NodeId node = kInvalidNode;
    bool tunneled = false;
  };

  struct Edge {
    NodeId peer;
    uint32_t step;  ///< the step into `peer`
  };

  /// A route's steps in travel order. The caller's stack holds routes of
  /// up to kInlineHops steps; a longer one spills to the heap.
  class Route {
   public:
    Route() = default;
    Route(const Route&) = delete;
    Route& operator=(const Route&) = delete;
    const Step* const* begin() const { return steps_; }
    const Step* const* end() const { return steps_ + size_; }
    size_t size() const { return size_; }

   private:
    friend class Topology;
    static constexpr size_t kInlineHops = 32;
    const Step* inline_[kInlineHops];
    std::vector<const Step*> spill_;
    const Step** steps_ = inline_;
    size_t size_ = 0;
  };

  /// One source's entry in the route table: its tree, built once under
  /// `built` by the first thread to route from the source. Threads that
  /// arrive during the build wait for it.
  struct TreeSlot {
    std::once_flag built;
    std::vector<uint32_t> entered_by;
  };

  /// The shortest-path tree rooted at `from`: the step entering each node
  /// (kNoStep for `from` and unreachable nodes). Built by Dijkstra on the
  /// first call for `from`, then shared by every thread.
  const std::vector<uint32_t>& tree_from(NodeId from) const;
  /// Runs Dijkstra from `from` for its slot in the route table.
  std::vector<uint32_t> build_tree(NodeId from) const;
  /// Fills `route` with the steps from `from` to `to`, walked up the tree
  /// from `to` and stored back to front; false if `to` is unreachable.
  bool route_steps(NodeId from, NodeId to, Route& route) const;
  /// True if a probe from `origin_zone` is dropped when entering `target`.
  bool probe_blocked_at(ZoneId origin_zone, NodeId target) const;

  std::vector<Zone> zones_;
  std::vector<Node> nodes_;
  std::vector<Step> steps_;  ///< link i is steps 2i (a to b) and 2i + 1
  std::vector<std::vector<Edge>> adjacency_;
  std::unordered_map<uint32_t, NodeId> ip_index_;
  /// The route table: one slot per source node, sized by freeze(); null
  /// until then.
  std::unique_ptr<TreeSlot[]> trees_;
  uint32_t device_slots_ = 0;  ///< see issue_device_slot()
};

}  // namespace curtain::net
