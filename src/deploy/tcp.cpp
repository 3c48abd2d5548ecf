#include "deploy/tcp.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "common/result.hpp"

namespace failsig::deploy {

TcpRuntime::TcpRuntime(sim::Simulation& driver, std::uint64_t seed)
    : driver_(driver), transport_(hooks(), Rng(seed ^ 0x7c9d2f1eULL)) {}

TcpRuntime::~TcpRuntime() { halt(); }

net::TcpTransport::Hooks TcpRuntime::hooks() {
    net::TcpTransport::Hooks hooks;
    hooks.post = [this](NodeId node, std::function<void()> task) {
        post(node, std::move(task));
    };
    hooks.post_at = [this](NodeId node, TimePoint at, std::function<void()> task) {
        post_at(node, at, std::move(task));
    };
    hooks.on_wire = [this] {
        const std::lock_guard lock(mu_);
        ++inflight_;
    };
    hooks.on_settled = [this] {
        {
            const std::lock_guard lock(mu_);
            ensure(inflight_ > 0, "deploy: tcp settled more frames than were wired");
            --inflight_;
        }
        board_cv_.notify_all();
    };
    hooks.now = [this] { return now(); };
    return hooks;
}

void TcpRuntime::halt() {
    {
        const std::lock_guard lock(mu_);
        shutdown_ = true;
        for (auto& [id, ex] : execs_) {
            ex->stopped = true;
            ex->cv.notify_all();
        }
    }
    board_cv_.notify_all();
    for (auto& [id, ex] : execs_) {
        if (ex->thread.joinable()) ex->thread.join();
    }
    // Stop the reactor before the stack's objects unbind.
    transport_.close();
}

// --- executors --------------------------------------------------------------

sim::Simulation& TcpRuntime::loop_of(NodeId node) {
    const std::lock_guard lock(mu_);
    auto it = execs_.find(node.value);
    if (it == execs_.end()) {
        ensure(!threads_started_,
               "deploy: tcp executor requested for unknown node after start");
        it = execs_.emplace(node.value, std::make_unique<NodeExecutor>(node)).first;
    }
    return it->second->sim;
}

TcpRuntime::NodeExecutor* TcpRuntime::find_executor(NodeId node) {
    const auto it = execs_.find(node.value);
    return it == execs_.end() ? nullptr : it->second.get();
}

void TcpRuntime::post(NodeId node, std::function<void()> task) {
    {
        const std::lock_guard lock(mu_);
        NodeExecutor* ex = find_executor(node);
        if (ex == nullptr || ex->stopped || shutdown_) return;  // crashed: drop
        ex->inbox.push_back(std::move(task));
        ex->cv.notify_all();
    }
    board_cv_.notify_all();
}

void TcpRuntime::post_at(NodeId node, TimePoint at, std::function<void()> task) {
    // The target loop is owned by its executor thread; hop there first, then
    // schedule. The executor republishes next_due after the slice, so the
    // coordinator learns about the new deadline before it can fast-forward
    // past it.
    post(node, [this, node, at, task = std::move(task)]() mutable {
        NodeExecutor* ex = nullptr;
        {
            const std::lock_guard lock(mu_);
            ex = find_executor(node);
        }
        if (ex != nullptr) ex->sim.schedule_at(at, std::move(task));
    });
}

void TcpRuntime::executor_loop(NodeExecutor& ex) {
    std::unique_lock lock(mu_);
    while (!ex.stopped && !shutdown_) {
        const TimePoint vnow = now();
        if (!ex.inbox.empty() || ex.next_due <= vnow) {
            ex.idle = false;
            std::function<void()> task;
            if (!ex.inbox.empty()) {
                task = std::move(ex.inbox.front());
                ex.inbox.pop_front();
            }
            lock.unlock();
            // Due timers fire before external input, and handlers observe
            // sim.now() == virtual now — same intra-node order as the sim
            // backend's shared loop.
            ex.sim.run_until(vnow);
            if (task) task();
            const TimePoint next = ex.sim.next_due();
            lock.lock();
            ex.next_due = next;
            continue;
        }
        ex.idle = true;
        board_cv_.notify_all();
        ex.cv.wait(lock);
    }
    ex.idle = true;
    ex.inbox.clear();
    board_cv_.notify_all();
}

void TcpRuntime::start_threads() {
    const std::lock_guard lock(mu_);
    if (threads_started_) return;
    threads_started_ = true;
    // All listeners exist now (the stack bound them while it was built).
    transport_.start();
    for (auto& [id, ex] : execs_) {
        ex->next_due = ex->sim.next_due();  // thread not running yet: safe
        NodeExecutor* ptr = ex.get();
        ex->thread = std::thread([this, ptr] { executor_loop(*ptr); });
    }
}

bool TcpRuntime::run_on(NodeId node, std::function<void()> fn) {
    bool started = false;
    {
        const std::lock_guard lock(mu_);
        started = threads_started_;
        const NodeExecutor* ex = find_executor(node);
        if (started && (ex == nullptr || ex->stopped || shutdown_)) return false;
    }
    if (!started) {
        // Single-threaded still: the executor's loop is not running, so
        // inline execution is the same serialization.
        fn();
        return true;
    }
    std::promise<void> done;
    auto finished = done.get_future();
    post(node, [&fn, &done] {
        fn();
        done.set_value();
    });
    finished.wait();
    return true;
}

// --- coordinator ------------------------------------------------------------

bool TcpRuntime::quiescent_locked() const {
    if (inflight_ != 0) return false;
    const TimePoint vnow = now();
    for (const auto& [id, ex] : execs_) {
        if (ex->stopped) continue;
        // An executor with a timer due at (or before) virtual now counts as
        // busy even while parked: right after a time step the coordinator
        // must fall into the condvar wait — releasing the hub mutex so the
        // notified executor can actually run — rather than keep spinning on
        // a not-yet-republished next_due.
        if (!ex->idle || !ex->inbox.empty() || ex->next_due <= vnow) return false;
    }
    return true;
}

TimePoint TcpRuntime::earliest_due_locked() {
    TimePoint next = driver_.next_due();
    for (const auto& [id, ex] : execs_) {
        if (!ex->stopped) next = std::min(next, ex->next_due);
    }
    return next;
}

void TcpRuntime::run(bool bounded, TimePoint deadline) {
    start_threads();
    std::unique_lock lock(mu_);
    while (!shutdown_) {
        const TimePoint vnow = now();
        // Driver timeline events due now run on this thread, unlocked (they
        // call submit/crash/... which take the hub mutex themselves).
        if (driver_.next_due() <= vnow) {
            lock.unlock();
            driver_.run_until(vnow);
            lock.lock();
            continue;
        }
        // Advance virtual time only at full quiescence: every executor
        // parked over an empty inbox, no frame between a sender's socket and
        // its destination inbox. The timed wait is lost-wakeup insurance
        // only; the normal path is a board_cv_ notify.
        if (!quiescent_locked()) {
            board_cv_.wait_for(lock, std::chrono::milliseconds(50));
            continue;
        }
        const TimePoint next = earliest_due_locked();
        if (next == sim::Simulation::kNoEvent) break;
        if (bounded && next > deadline) break;
        vnow_.store(next, std::memory_order_release);
        for (auto& [id, ex] : execs_) {
            if (!ex->stopped) ex->cv.notify_all();
        }
    }
    lock.unlock();
    if (bounded && now() < deadline) vnow_.store(deadline, std::memory_order_release);
    if (bounded) driver_.run_until(deadline);  // clamp the driver clock too
}

// --- crash & recovery -------------------------------------------------------

void TcpRuntime::crash(const std::vector<NodeId>& nodes) {
    for (const NodeId node : nodes) transport_.isolate(node);
    {
        const std::lock_guard lock(mu_);
        for (const NodeId node : nodes) {
            NodeExecutor* ex = find_executor(node);
            if (ex == nullptr) continue;
            ex->stopped = true;
            ex->inbox.clear();
            ex->cv.notify_all();  // thread exits its loop and parks for join
        }
    }
    board_cv_.notify_all();
}

void TcpRuntime::recover(const std::vector<NodeId>& nodes) {
    for (const NodeId node : nodes) transport_.restore(node);
    // The crashed executors' threads have exited their loops; join them
    // outside the hub mutex, then reset and respawn.
    std::vector<std::thread> dead;
    {
        const std::lock_guard lock(mu_);
        for (const NodeId node : nodes) {
            NodeExecutor* ex = find_executor(node);
            if (ex == nullptr || !ex->stopped) continue;
            if (ex->thread.joinable()) dead.push_back(std::move(ex->thread));
        }
    }
    for (auto& t : dead) t.join();
    {
        const std::lock_guard lock(mu_);
        for (const NodeId node : nodes) {
            NodeExecutor* ex = find_executor(node);
            if (ex == nullptr || !ex->stopped) continue;
            ex->stopped = false;
            ex->idle = true;
            ex->inbox.clear();
            ex->next_due = ex->sim.next_due();
            if (threads_started_) {
                NodeExecutor* ptr = ex;
                ex->thread = std::thread([this, ptr] { executor_loop(*ptr); });
            }
        }
    }
    board_cv_.notify_all();
}

}  // namespace failsig::deploy
