// Real-socket execution of a deployment (Backend::kTcp).
//
// A Deployment on the TCP backend owns one TcpRuntime: a TcpTransport plus
// one *executor* per physical node, a thread owning a private
// discrete-event Simulation (the node's timers and pools) and an inbox of
// tasks posted by the transport's reactor and by the deployment. The stack
// does not change at all — it schedules on "its" Simulation exactly as on
// the simulator; only the mapping from node to event loop differs
// (loop_of).
//
// Time is virtual but shared: one atomic tick counter all threads read. The
// coordinator (the thread calling run()) advances it only when the whole
// system is quiescent — every executor idle with an empty inbox, no frame
// between a sender's socket write and its destination inbox (inflight
// accounting via transport hooks), and no driver event due — and then
// jumps straight to the earliest pending event anywhere. An 8-second fault
// timeline thus replays in however long the sockets actually take, while
// every timeout still fires at its scripted virtual instant.
//
// Crash semantics are real here: crash() tears the nodes' executor threads
// down and the transport drops their frames at send and at the reactor;
// recover() re-admits the frames and restarts the threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/tcp_transport.hpp"
#include "sim/simulation.hpp"

namespace failsig::deploy {

class TcpRuntime {
public:
    /// `driver` is the deployment's timeline loop (scheduled scenario
    /// events); the coordinator runs it between virtual-time steps.
    TcpRuntime(sim::Simulation& driver, std::uint64_t seed);
    /// Halts (joins the executors, closes the transport) if nobody did.
    ~TcpRuntime();

    TcpRuntime(const TcpRuntime&) = delete;
    TcpRuntime& operator=(const TcpRuntime&) = delete;

    [[nodiscard]] net::TcpTransport& transport() { return transport_; }
    [[nodiscard]] TimePoint now() const { return vnow_.load(std::memory_order_acquire); }
    /// The node's private event loop; the first call creates its executor.
    /// Construction only (the stack builds its topology single-threaded).
    [[nodiscard]] sim::Simulation& loop_of(NodeId node);

    /// Queues `task` on the node's executor; dropped when the node is
    /// crashed or the runtime halted. Any thread.
    void post(NodeId node, std::function<void()> task);
    /// Runs `fn` on the node's executor and waits for it (inline before the
    /// threads exist). Returns false if the node's executor is stopped.
    bool run_on(NodeId node, std::function<void()> fn);
    /// Drives the system until nothing is left to do (`bounded` false) or
    /// until virtual time `deadline`. The first call starts the reactor and
    /// the executor threads.
    void run(bool bounded, TimePoint deadline);

    /// Crash as teardown: the nodes' frames are dropped from now on and
    /// their executors stop.
    void crash(const std::vector<NodeId>& nodes);
    /// Undoes crash(): frames flow again and stopped executors restart.
    void recover(const std::vector<NodeId>& nodes);
    /// Stops every executor, joins the threads and closes the transport.
    /// Idempotent; the deployment calls it before the stack's objects die.
    void halt();

private:
    struct NodeExecutor {
        explicit NodeExecutor(NodeId node) : id(node) {}
        NodeId id;
        /// The node's private event loop: its thread only, once started.
        sim::Simulation sim;
        // Remaining fields are guarded by the hub mutex mu_.
        std::deque<std::function<void()>> inbox;
        std::condition_variable cv;
        /// Earliest live event on `sim`, republished after every slice.
        TimePoint next_due{sim::Simulation::kNoEvent};
        bool idle{true};
        bool stopped{false};
        std::thread thread;
    };

    [[nodiscard]] net::TcpTransport::Hooks hooks();
    [[nodiscard]] NodeExecutor* find_executor(NodeId node);
    void post_at(NodeId node, TimePoint at, std::function<void()> task);
    void executor_loop(NodeExecutor& ex);
    void start_threads();
    /// All executors parked with empty inboxes and no frame in flight.
    [[nodiscard]] bool quiescent_locked() const;
    /// Earliest pending virtual-time event across executors + driver.
    [[nodiscard]] TimePoint earliest_due_locked();

    sim::Simulation& driver_;  // coordinator thread only
    std::atomic<TimePoint> vnow_{0};

    std::mutex mu_;  // the one hub mutex: inboxes, idle/stop flags, inflight
    std::condition_variable board_cv_;
    std::uint64_t inflight_{0};
    bool shutdown_{false};
    bool threads_started_{false};

    /// Frozen after construction (executors are created while the stack
    /// builds its topology, single-threaded).
    std::map<std::uint32_t, std::unique_ptr<NodeExecutor>> execs_;

    net::TcpTransport transport_;
};

}  // namespace failsig::deploy
