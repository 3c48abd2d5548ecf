// Real-socket transport: TCP on localhost behind the net::Transport seam.
//
// Architecture (the nfs-ganesha RPC layer is the exemplar: dedicated
// dispatcher thread multiplexing sockets, worker pools doing the actual
// request work):
//
//  * one listening socket per node, bound to 127.0.0.1 port 0 — the kernel
//    picks an ephemeral port which is published in the EndpointMap, so any
//    number of deployments run concurrently (ctest -j) without colliding;
//  * one *reactor* thread running epoll over every listener and accepted
//    connection: it reads byte streams, reassembles length-prefixed frames
//    (net/frame.hpp), passes each frame through the Transport's fault model
//    (net/transport.hpp: block/partition/drop are frame-dropping *at the
//    reactor*, exactly where a firewall would sit, and a surge delays async
//    frames only), and posts the bound handler's invocation onto the
//    destination node's executor via the host hooks;
//  * lazy per-directed-pair connections on first send, with bounded
//    backoff-retry, established from the sending node's executor thread —
//    TCP's stream order keeps each link FIFO on the wire, and the reactor
//    keeps it FIFO across a delay surge: a frame is never due before its
//    link's previous one, so a frame admitted just after a surge ends waits
//    behind one admitted just before (the simulator clamps the same way);
//  * same-node traffic short-circuits the socket layer: a replica handing
//    a committed request to its own application sink is an in-process
//    upcall, exempt from partitions, random drop and surges as on the
//    simulator.
//
// The transport knows nothing about virtual time or executors: the hosting
// deployment injects `Hooks` (post a task to a node's loop, in-flight
// accounting for quiescence detection, a time source for delay surges).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "net/endpoint_map.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"

namespace failsig::net {

class TcpTransport final : public Transport {
public:
    struct Hooks {
        /// Posts a delivery task onto `node`'s executor. Must mark the
        /// executor busy synchronously (quiescence correctness). Called
        /// from the reactor thread and, for same-node traffic, from the
        /// sending executor.
        std::function<void(NodeId node, std::function<void()> task)> post;
        /// Delay-surge variant: run the task on `node`'s loop at virtual
        /// time `at`. Optional; when absent surges degrade to immediate.
        std::function<void(NodeId node, TimePoint at, std::function<void()> task)> post_at;
        /// In-flight accounting for socket-routed frames: `on_wire` before
        /// the frame enters the socket, `on_settled` once it is enqueued at
        /// the destination executor or dropped. The host must not report
        /// quiescence while wire > settled.
        std::function<void()> on_wire;
        std::function<void()> on_settled;
        /// Current virtual time (delay-surge bookkeeping). Optional.
        std::function<TimePoint()> now;
    };

    TcpTransport(Hooks hooks, Rng rng);
    ~TcpTransport() override;

    TcpTransport(const TcpTransport&) = delete;
    TcpTransport& operator=(const TcpTransport&) = delete;

    // --- net::Transport --------------------------------------------------
    /// First bind for a node creates its listener (ephemeral port) and
    /// publishes the address. Topology building is single-threaded and
    /// must finish before start().
    void bind(Endpoint endpoint, MessageHandler handler) override;
    void unbind(Endpoint endpoint) override;
    void send(Endpoint src, Endpoint dst, Payload payload) override;
    void connect(NodeId src, NodeId dst) override;
    void close() override;

    /// Same counters as SimNetwork, except that sockets flatten every
    /// payload into its frame: copied bytes equal logical bytes.
    [[nodiscard]] TrafficStats stats() const override;
    void reset_stats() override;

    // --- host integration ------------------------------------------------
    /// Starts the reactor thread (listeners must all exist). Idempotent.
    void start();
    /// Crash-as-teardown support: frames to or from `node` are dropped
    /// from now on, at send and at the reactor.
    void isolate(NodeId node);
    /// Recovery: undoes isolate(node); the node's frames flow again.
    void restore(NodeId node);
    [[nodiscard]] const EndpointMap& endpoints() const { return endpoint_map_; }

private:
    struct Conn {
        std::mutex mu;  // serializes writers of one directed pair
        int fd{-1};
    };

    void ensure_listener(NodeId node);
    [[nodiscard]] int connect_with_backoff(NodeId dst);
    void write_frame(int fd, const Bytes& frame);
    void reactor_loop();
    [[nodiscard]] bool isolated(NodeId a, NodeId b) const;
    /// Fault verdict for a socket frame at the reactor (`from_wire`) or a
    /// same-node message at send, then the post onto dst's executor.
    void deliver(Message msg, bool from_wire);

    Hooks hooks_;

    /// Random-drop draws; used only inside faults().admit(), which holds
    /// the fault model's lock.
    Rng rng_;
    // Crash teardown: touched from the reactor, from senders and from
    // driver-side crash/recover calls.
    mutable std::mutex fault_mu_;
    std::unordered_set<std::uint32_t> dead_nodes_;

    // Endpoint directory + handlers: built single-threaded, read from the
    // reactor and sender threads afterwards.
    mutable std::mutex topo_mu_;
    EndpointMap endpoint_map_;
    std::unordered_map<Endpoint, MessageHandler> handlers_;
    std::unordered_map<std::uint32_t, int> listeners_;  // node -> listen fd

    // Directed-pair connections (src<<32|dst -> Conn).
    std::mutex conn_mu_;
    std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns_;

    mutable std::mutex stats_mu_;
    TrafficStats stats_;
    std::uint64_t count_token_{Payload::fresh_count_token()};

    // Reactor.
    std::thread reactor_;
    int epoll_fd_{-1};
    int wake_fd_{-1};
    bool started_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> closed_{false};
    std::unordered_map<int, FrameReader> streams_;  // accepted fd -> parser
    /// Latest due time handed out per directed link (src<<32|dst): the FIFO
    /// clamp. Only the reactor delivers wire frames, so it needs no lock.
    std::unordered_map<std::uint64_t, TimePoint> last_due_;
};

}  // namespace failsig::net
