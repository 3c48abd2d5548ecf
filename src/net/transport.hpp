// The transport seam: what a protocol stack needs from a network.
//
//  * `Transport`     — asynchronous datagram delivery between opaque
//                      `Endpoint`s with receive upcalls, an explicit
//                      connection lifecycle (connect / graceful close), and
//                      delivery statistics. This is everything the ORB, the
//                      FS pairs and the protocol out-queues call.
//  * `FaultInjector` — the link fault model every Transport owns: which node
//                      pairs share a synchronous LAN link, blocks,
//                      partitions, delay surges, random drop and the
//                      corruptor. It decides each message in one call, so
//                      every backend applies the same rule to which links a
//                      fault touches.
//
// `SimNetwork` (net/network.hpp) delivers over a discrete-event Simulation;
// `TcpTransport` (net/tcp_transport.hpp) over real sockets.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace failsig::net {

/// A message in flight. The payload is a ref-counted immutable view: all n
/// receivers of a multicast share one body buffer (plus a tiny per-target
/// header), so putting a message on the wire never deep-copies it.
struct Message {
    Endpoint src;
    Endpoint dst;
    Payload payload;
};

using MessageHandler = std::function<void(const Message&)>;

/// Mutates or drops messages in flight; returns false to drop.
using Corruptor = std::function<bool(Message&)>;

/// How a message the fault model admitted travels.
struct Route {
    /// The synchronous link's bound δ when src and dst are a LAN pair.
    std::optional<Duration> lan_bound;
    /// Extra delay of an active surge; 0 on LAN pairs and same-node traffic.
    Duration surge{0};
};

/// The link fault model. Thread-safe: one mutex guards all of its state, so
/// a scenario driver, a reactor and node executors may share one instance.
/// Every call takes effect on messages admitted after it; none retracts a
/// message already in flight.
///
/// LAN pairs and same-node traffic are exempt from partitions, random drop
/// and surges. A LAN pair is the point-to-point cable between an FS pair's
/// two nodes, whose bound δ (assumption A2) no fault on the async network
/// may break. Same-node traffic is an in-process upcall (a replica handing
/// a committed request to its own application sink): a dropped local
/// delivery would park every later upcall in a seq-holdback forever while
/// the truncated stream still looked like a valid prefix to the agreement
/// checker.
class FaultInjector {
public:
    /// Declares nodes a and b connected by a synchronous link with bound δ.
    void set_lan_pair(NodeId a, NodeId b, Duration delta);
    /// Drops every message between the two nodes (both directions).
    void block(NodeId a, NodeId b);
    void unblock(NodeId a, NodeId b);
    /// Splits nodes into groups; traffic across groups is dropped until
    /// heal_partition().
    void partition(const std::vector<std::set<NodeId>>& groups);
    void heal_partition();
    /// Adds `extra` delay to all async traffic until time `until` (used to
    /// provoke false suspicions in timeout-based suspectors).
    void delay_surge(Duration extra, TimePoint until);
    /// Installs a payload corruptor. It sees every message, LAN and
    /// same-node ones included, and is called with the fault lock held.
    void set_corruptor(Corruptor corruptor);
    /// Random drop probability on async links.
    void set_drop_probability(double p);

    /// Decides one message sent at `now`: nullopt drops it, otherwise it
    /// travels by the returned route. Applies block, partition, random drop
    /// (one draw from `rng`, async links only) and the corruptor, in that
    /// order.
    [[nodiscard]] std::optional<Route> admit(Message& msg, Rng& rng, TimePoint now);

private:
    [[nodiscard]] bool partitioned(NodeId a, NodeId b) const;

    std::mutex mu_;
    // Keyed by the unordered node pair.
    std::unordered_map<std::uint64_t, Duration> lan_pairs_;
    std::set<std::uint64_t> blocked_;
    std::vector<std::set<NodeId>> partition_groups_;
    Duration surge_extra_{0};
    TimePoint surge_until_{0};
    Corruptor corruptor_;
    double drop_probability_{0.0};
};

/// Counters of the logical message plane, shared by the report pipeline
/// across backends.
struct TrafficStats {
    std::uint64_t messages_sent{0};
    std::uint64_t messages_delivered{0};
    std::uint64_t messages_dropped{0};
    std::uint64_t bytes_sent{0};
    /// Bytes actually materialized to carry the logical wire bytes (see
    /// SimNetwork for the zero-copy accounting rules).
    std::uint64_t payload_bytes_copied{0};
    /// Distinct body buffers that entered the plane (== payload encodes).
    std::uint64_t payload_bodies_encoded{0};
};

/// Abstract asynchronous message transport.
///
/// Threading contract: `bind`/`unbind`/`connect` are topology-building calls
/// made while the deployment is single-threaded (construction / teardown).
/// `send` may be called from any execution context the backend hands upcalls
/// to; the handler for an endpoint is invoked on whatever context the
/// backend assigns to that endpoint's node (the simulation loop for
/// SimNetwork, the node's executor thread for TcpTransport).
class Transport {
public:
    virtual ~Transport() = default;

    /// Registers the handler invoked when a message reaches `endpoint`.
    virtual void bind(Endpoint endpoint, MessageHandler handler) = 0;
    virtual void unbind(Endpoint endpoint) = 0;

    /// Sends `payload` from `src` to `dst` (fire-and-forget datagram).
    virtual void send(Endpoint src, Endpoint dst, Payload payload) = 0;

    // --- connection lifecycle -------------------------------------------
    /// Eagerly establishes the src→dst link (with backoff-retry on a real
    /// backend). Optional: `send` connects lazily; this exists so a
    /// deployment can front-load connection cost out of the measured
    /// window. Default: no-op (the simulator has no connections).
    virtual void connect(NodeId /*src*/, NodeId /*dst*/) {}
    /// Gracefully closes every connection and stops delivering. Further
    /// sends are dropped (counted). Default: no-op.
    virtual void close() {}

    /// The fault model every message sent through this transport passes.
    [[nodiscard]] FaultInjector& faults() { return faults_; }

    // --- statistics ------------------------------------------------------
    [[nodiscard]] virtual TrafficStats stats() const = 0;
    virtual void reset_stats() = 0;
    [[nodiscard]] std::uint64_t messages_sent() const { return stats().messages_sent; }
    [[nodiscard]] std::uint64_t messages_delivered() const { return stats().messages_delivered; }
    [[nodiscard]] std::uint64_t messages_dropped() const { return stats().messages_dropped; }
    [[nodiscard]] std::uint64_t bytes_sent() const { return stats().bytes_sent; }
    [[nodiscard]] std::uint64_t payload_bytes_copied() const {
        return stats().payload_bytes_copied;
    }
    [[nodiscard]] std::uint64_t payload_bodies_encoded() const {
        return stats().payload_bodies_encoded;
    }

private:
    FaultInjector faults_;
};

}  // namespace failsig::net
