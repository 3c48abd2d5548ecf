// Mini-ORB: location-independent oneway invocation with a per-node
// request-handling thread pool.
//
// This is the substrate the paper leans on (§3, §3.1):
//  * location independence — callers hold ObjectRefs, never pointers, so a
//    servant can live on any node ("that GC' is hosted on a different node
//    to the Invocation layer will not matter since the communication between
//    the two is via the ORB");
//  * a configurable thread pool (default 10) handling incoming requests —
//    the contention source behind Figure 7's throughput shape.
// The paper's interception of GC-bound calls ("a call to NewTOP GC ... is
// intercepted on the fly and is submitted to both GC and GC'") is
// fs::FsClient's job: it sits between the Invocation layer and the ORB.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "orb/request.hpp"
#include "sim/cost_model.hpp"
#include "sim/thread_pool.hpp"

namespace failsig::orb {

class Orb;

/// An object implementation. dispatch() runs on the ORB's (simulated) pool
/// after unmarshalling; it may invoke other objects via its Orb.
class Servant {
public:
    virtual ~Servant() = default;
    virtual void dispatch(const Request& request) = 0;
};

/// One ORB instance; binds one endpoint on its node and hosts any number of
/// servants keyed by object key.
class Orb {
public:
    Orb(sim::Simulation& sim, net::Transport& net, sim::SimThreadPool& pool, Endpoint endpoint,
        const sim::CostModel& costs);
    ~Orb();

    Orb(const Orb&) = delete;
    Orb& operator=(const Orb&) = delete;

    /// Registers `servant` under `key`; returns its location-independent ref.
    ObjectRef activate(const std::string& key, Servant* servant);
    void deactivate(const std::string& key);

    /// Oneway invocation: marshals the request on this node's pool and
    /// sends it to `target`.
    void invoke(const ObjectRef& target, const std::string& operation, Any args,
                ServiceContexts contexts = {});

    /// Fan-out invocation: one logical request, many targets. Equivalent to
    /// one invoke() per target — same per-target marshal charge on the pool,
    /// same wire bytes — except the body is encoded once and shared. The
    /// protocol out-queues (GC broadcast, PBFT broadcast, FS client
    /// replica pairs) use this so a multicast costs O(1) encodes.
    void invoke_fanout(const std::vector<ObjectRef>& targets, const std::string& operation,
                       Any args, ServiceContexts contexts = {});

    [[nodiscard]] Endpoint endpoint() const { return endpoint_; }
    [[nodiscard]] NodeId node() const { return endpoint_.node; }
    [[nodiscard]] sim::Simulation& simulation() { return sim_; }
    [[nodiscard]] sim::SimThreadPool& pool() { return pool_; }
    [[nodiscard]] const sim::CostModel& costs() const { return costs_; }

    [[nodiscard]] std::uint64_t requests_sent() const { return requests_sent_; }
    [[nodiscard]] std::uint64_t requests_dispatched() const { return requests_dispatched_; }

private:
    void on_network_message(const net::Message& msg);

    sim::Simulation& sim_;
    net::Transport& net_;
    sim::SimThreadPool& pool_;
    Endpoint endpoint_;
    sim::CostModel costs_;
    std::uint64_t next_request_id_{1};
    std::unordered_map<std::string, Servant*> servants_;
    std::uint64_t requests_sent_{0};
    std::uint64_t requests_dispatched_{0};
    std::shared_ptr<bool> alive_;
};

/// Factory and registry for ORBs: owns one thread pool per node so that
/// collocated ORBs (e.g. FSO_i and FSO'_j on one host in the paper's
/// Figure 5 set-up) contend for the same simulated CPU.
///
/// The domain resolves which event loop a node runs on through a
/// `SimProvider`: the classic deployments map every node onto one shared
/// Simulation (byte-identical to the historical single-loop behavior),
/// while the TCP backend hands each node its executor thread's private
/// loop. ORBs, pools and everything scheduled through them inherit the
/// node's loop automatically.
class OrbDomain {
public:
    /// Event loop lookup for a node. Must stay valid for the domain's
    /// lifetime and return the same Simulation for the same node.
    using SimProvider = std::function<sim::Simulation&(NodeId)>;

    /// Single-loop domain: every node shares `sim` (the simulator backends).
    OrbDomain(sim::Simulation& sim, net::Transport& net, sim::CostModel costs,
              int threads_per_node = 10);
    /// Multi-loop domain: `sim_of` maps each node to its own event loop
    /// (the TCP backend's per-node executors).
    OrbDomain(SimProvider sim_of, net::Transport& net, sim::CostModel costs,
              int threads_per_node = 10);

    /// Creates an ORB on `node` with a fresh port.
    Orb& create_orb(NodeId node);

    [[nodiscard]] sim::SimThreadPool& pool(NodeId node);
    [[nodiscard]] sim::Simulation& simulation(NodeId node) { return sim_of_(node); }
    [[nodiscard]] net::Transport& network() { return net_; }
    [[nodiscard]] const sim::CostModel& costs() const { return costs_; }

private:
    SimProvider sim_of_;
    net::Transport& net_;
    sim::CostModel costs_;
    int threads_per_node_;
    std::uint32_t next_port_{1};
    std::unordered_map<NodeId, std::unique_ptr<sim::SimThreadPool>> pools_;
    std::vector<std::unique_ptr<Orb>> orbs_;
};

}  // namespace failsig::orb
