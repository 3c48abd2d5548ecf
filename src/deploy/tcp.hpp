// Real-socket execution of any deployment.
//
// TcpDeployment wraps the deployment make_deployment builds for the sim
// backend, but mounts it on a TcpTransport and gives every physical node
// its own *executor*: a thread owning a private discrete-event Simulation
// (the node's timers and pools) plus an inbox of delivery tasks posted by
// the transport's reactor. The wrapped stack does not change at all — it
// schedules on "its" Simulation exactly as before; only the mapping from
// node to event loop changed (net::RuntimeEnv::sim_of).
//
// Time is virtual but shared: a VirtualClock all threads read. The
// coordinator (the thread calling run()/run_until()) advances it only when
// the whole system is quiescent — every executor idle with an empty inbox,
// no frame between a sender's socket write and its destination inbox
// (inflight accounting via transport hooks), and no driver event due — and
// then jumps straight to the earliest pending event anywhere. An 8-second
// fault timeline thus replays in however long the sockets actually take,
// while every timeout still fires at its scripted virtual instant.
//
// Crash semantics are real here: when a member's nodes are exclusively its
// own (NewTOP, PBFT), crash() tears the executor threads down and the
// transport drops the member's frames at send and at the reactor. Stacks
// whose members share hosts (FS-NewTOP) keep their own crash semantics —
// the pair-link sever — delegated to the wrapped deployment.
#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "deploy/deployment.hpp"
#include "net/tcp_transport.hpp"
#include "time/clock.hpp"

namespace failsig::deploy {

class TcpDeployment final : public Deployment {
public:
    TcpDeployment(SystemKind system, const DeploymentSpec& spec);
    ~TcpDeployment() override;

    TcpDeployment(const TcpDeployment&) = delete;
    TcpDeployment& operator=(const TcpDeployment&) = delete;

    // --- accessors --------------------------------------------------------
    /// The driver timeline loop (scheduled scenario events live here). The
    /// per-node loops are internal to the executors.
    [[nodiscard]] sim::Simulation& sim() override { return driver_; }
    [[nodiscard]] net::Transport& network() override { return *transport_; }
    [[nodiscard]] int group_size() const override { return inner_->group_size(); }
    [[nodiscard]] std::vector<NodeId> nodes_of(int member) const override {
        return inner_->nodes_of(member);
    }

    // --- time & execution -------------------------------------------------
    [[nodiscard]] const time::Clock& clock() override { return vclock_; }
    [[nodiscard]] TimePoint now() override { return vclock_.now(); }
    void schedule(TimePoint at, std::function<void()> fn) override {
        driver_.schedule_at(at, std::move(fn));
    }
    void run() override;
    void run_until(TimePoint deadline) override;

    // --- workload ---------------------------------------------------------
    void attach(Observers observers) override { inner_->attach(std::move(observers)); }
    void submit(int member, Bytes payload) override;

    // --- fault hooks ------------------------------------------------------
    void crash(int member) override;
    void recover(int member) override;
    bool inject_fault(const FaultInjection& fault) override;
    [[nodiscard]] bool has_liveness_timeouts() const override {
        return inner_->has_liveness_timeouts();
    }
    bool fire_timeouts() override;
    void stop_perpetual() override;
    [[nodiscard]] bool supports_host_faults() const override {
        return inner_->supports_host_faults();
    }

    // --- recovery ---------------------------------------------------------
    /// Reads are posted onto the member's executor (quiescence-safe); a
    /// still-crashed member reports nullopt.
    [[nodiscard]] std::optional<AppStateInfo> app_state_of(int member) override;
    [[nodiscard]] RecoveryStats recovery_stats() const override {
        return inner_->recovery_stats();
    }

    // --- deterministic counters ------------------------------------------
    [[nodiscard]] BatchStats batch_stats() const override { return inner_->batch_stats(); }
    [[nodiscard]] std::uint64_t crypto_verify_ops() const override {
        return inner_->crypto_verify_ops();
    }
    [[nodiscard]] std::uint64_t crypto_verify_cache_hits() const override {
        return inner_->crypto_verify_cache_hits();
    }
    [[nodiscard]] std::uint64_t crypto_memo_high_water() const override {
        return inner_->crypto_memo_high_water();
    }

    /// The transport's node directory (tests assert the published ports).
    [[nodiscard]] const net::EndpointMap& endpoints() const { return transport_->endpoints(); }

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

    /// True when no other member shares any of `member`'s nodes: crash()
    /// and recover() then act on its executors and transport frames.
    [[nodiscard]] bool owns_its_hosts(int member) const;
    [[nodiscard]] NodeExecutor& executor_for(NodeId node);
    [[nodiscard]] NodeExecutor* find_executor(NodeId node);
    void post(NodeId node, std::function<void()> task);
    void post_at(NodeId node, TimePoint at, std::function<void()> task);
    void executor_loop(NodeExecutor& ex);
    void start_threads();
    /// Runs `fn` on the node's executor and waits for it (inline before the
    /// threads exist). Returns false if the node's executor is stopped.
    bool run_on_node(NodeId node, std::function<void()> fn);
    /// All executors parked with empty inboxes and no frame in flight.
    [[nodiscard]] bool quiescent_locked() const;
    /// Earliest pending virtual-time event across executors + driver.
    [[nodiscard]] TimePoint earliest_due_locked();
    void run_core(bool bounded, TimePoint deadline);

    time::VirtualClock vclock_;
    sim::Simulation driver_;  // coordinator thread only

    std::mutex mu_;  // the one hub mutex: inboxes, idle/stop flags, inflight
    std::condition_variable board_cv_;
    std::uint64_t inflight_{0};
    bool shutdown_{false};
    bool threads_started_{false};

    /// Frozen after construction (executors are created while the wrapped
    /// stack builds its topology, single-threaded).
    std::map<std::uint32_t, std::unique_ptr<NodeExecutor>> execs_;

    std::unique_ptr<net::TcpTransport> transport_;
    std::unique_ptr<Deployment> inner_;
};

}  // namespace failsig::deploy
