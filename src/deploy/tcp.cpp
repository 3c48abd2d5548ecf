#include "deploy/tcp.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <set>
#include <utility>

#include "common/result.hpp"

namespace failsig::deploy {

TcpDeployment::TcpDeployment(SystemKind system, const DeploymentSpec& spec) {
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
    hooks.now = [this] { return vclock_.now(); };
    transport_ = std::make_unique<net::TcpTransport>(std::move(hooks),
                                                     Rng(spec.seed ^ 0x7c9d2f1eULL));

    // The wrapped deployment is the one make_deployment builds for the sim
    // backend, mounted on this transport and on per-node event loops. Its
    // topology building (bind per endpoint, one Simulation per node via
    // sim_of) runs single-threaded, right here.
    DeploymentSpec inner_spec = spec;
    inner_spec.backend = Backend::kSim;
    // Obs binds to one Simulation clock; with one loop per node there is no
    // single deterministic clock to bind, so tracing is sim-backend-only.
    inner_spec.obs = nullptr;
    inner_spec.env.transport = transport_.get();
    inner_spec.env.sim_of = [this](NodeId node) -> sim::Simulation& {
        return executor_for(node).sim;
    };
    inner_ = make_deployment(system, inner_spec);

    // All listeners exist now; open the reactor. Executor threads stay parked
    // until the first run — construction stays cheap and single-threaded.
    transport_->start();
}

TcpDeployment::~TcpDeployment() {
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
    // Stop the reactor before the stacks unbind (members destruct after this
    // body, in reverse declaration order: inner_ first, transport_ last).
    transport_->close();
}

// --- executors --------------------------------------------------------------

TcpDeployment::NodeExecutor& TcpDeployment::executor_for(NodeId node) {
    const std::lock_guard lock(mu_);
    auto it = execs_.find(node.value);
    if (it == execs_.end()) {
        ensure(!threads_started_,
               "deploy: tcp executor requested for unknown node after start");
        it = execs_.emplace(node.value, std::make_unique<NodeExecutor>(node)).first;
    }
    return *it->second;
}

TcpDeployment::NodeExecutor* TcpDeployment::find_executor(NodeId node) {
    const auto it = execs_.find(node.value);
    return it == execs_.end() ? nullptr : it->second.get();
}

void TcpDeployment::post(NodeId node, std::function<void()> task) {
    {
        const std::lock_guard lock(mu_);
        NodeExecutor* ex = find_executor(node);
        if (ex == nullptr || ex->stopped || shutdown_) return;  // crashed: drop
        ex->inbox.push_back(std::move(task));
        ex->cv.notify_all();
    }
    board_cv_.notify_all();
}

void TcpDeployment::post_at(NodeId node, TimePoint at, std::function<void()> task) {
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

void TcpDeployment::executor_loop(NodeExecutor& ex) {
    std::unique_lock lock(mu_);
    while (!ex.stopped && !shutdown_) {
        const TimePoint vnow = vclock_.now();
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

void TcpDeployment::start_threads() {
    const std::lock_guard lock(mu_);
    if (threads_started_) return;
    threads_started_ = true;
    for (auto& [id, ex] : execs_) {
        ex->next_due = ex->sim.next_due();  // thread not running yet: safe
        NodeExecutor* ptr = ex.get();
        ex->thread = std::thread([this, ptr] { executor_loop(*ptr); });
    }
}

// --- coordinator ------------------------------------------------------------

bool TcpDeployment::quiescent_locked() const {
    if (inflight_ != 0) return false;
    const TimePoint vnow = vclock_.now();
    for (const auto& [id, ex] : execs_) {
        if (ex->stopped) continue;
        // An executor with a timer due at (or before) virtual now counts as
        // busy even while parked: right after an advance_to the coordinator
        // must fall into the condvar wait — releasing the hub mutex so the
        // notified executor can actually run — rather than keep spinning on
        // a not-yet-republished next_due.
        if (!ex->idle || !ex->inbox.empty() || ex->next_due <= vnow) return false;
    }
    return true;
}

TimePoint TcpDeployment::earliest_due_locked() {
    TimePoint next = driver_.next_due();
    for (const auto& [id, ex] : execs_) {
        if (!ex->stopped) next = std::min(next, ex->next_due);
    }
    return next;
}

void TcpDeployment::run_core(bool bounded, TimePoint deadline) {
    start_threads();
    std::unique_lock lock(mu_);
    while (!shutdown_) {
        const TimePoint vnow = vclock_.now();
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
        vclock_.advance_to(next);
        for (auto& [id, ex] : execs_) {
            if (!ex->stopped) ex->cv.notify_all();
        }
    }
    lock.unlock();
    if (bounded && vclock_.now() < deadline) vclock_.advance_to(deadline);
    if (bounded) driver_.run_until(deadline);  // clamp the driver clock too
}

void TcpDeployment::run() { run_core(false, 0); }

void TcpDeployment::run_until(TimePoint deadline) { run_core(true, deadline); }

// --- workload & faults ------------------------------------------------------

void TcpDeployment::submit(int member, Bytes payload) {
    const std::vector<NodeId> nodes = inner_->nodes_of(member);
    ensure(!nodes.empty(), "deploy: tcp submit target has no nodes");
    // nodes_of lists the member's application host first; submission mutates
    // that node's state, so it runs on that node's executor.
    post(nodes.front(), [this, member, payload = std::move(payload)]() mutable {
        inner_->submit(member, std::move(payload));
    });
}

bool TcpDeployment::owns_its_hosts(int member) const {
    std::set<std::uint32_t> others;
    for (int other = 0; other < inner_->group_size(); ++other) {
        if (other == member) continue;
        for (const NodeId node : inner_->nodes_of(other)) others.insert(node.value);
    }
    const std::vector<NodeId> mine = inner_->nodes_of(member);
    return std::none_of(mine.begin(), mine.end(),
                        [&](NodeId node) { return others.contains(node.value); });
}

void TcpDeployment::crash(int member) {
    // Members with dedicated hosts get the real thing: executor teardown plus
    // frame-dropping at the transport. Members sharing hosts with healthy
    // members (FS-NewTOP, where app hosts double as pair hosts) keep their
    // stack's own crash semantics — tearing a shared host down would take
    // healthy members with it.
    if (!owns_its_hosts(member)) {
        inner_->crash(member);
        return;
    }
    const std::vector<NodeId> mine = inner_->nodes_of(member);
    for (const NodeId node : mine) transport_->isolate(node);
    {
        const std::lock_guard lock(mu_);
        for (const NodeId node : mine) {
            NodeExecutor* ex = find_executor(node);
            if (ex == nullptr) continue;
            ex->stopped = true;
            ex->inbox.clear();
            ex->cv.notify_all();  // thread exits its loop and parks for join
        }
    }
    board_cv_.notify_all();
}

void TcpDeployment::recover(int member) {
    // Mirror of crash(): members with dedicated hosts get their frames
    // re-admitted and their executor threads respawned; shared-host members
    // (FS-NewTOP) delegate link healing to the wrapped stack.
    if (owns_its_hosts(member)) {
        const std::vector<NodeId> mine = inner_->nodes_of(member);
        for (const NodeId node : mine) transport_->restore(node);
        // The crashed executors' threads have exited their loops; join them
        // outside the hub mutex, then reset and respawn.
        std::vector<std::thread> dead;
        {
            const std::lock_guard lock(mu_);
            for (const NodeId node : mine) {
                NodeExecutor* ex = find_executor(node);
                if (ex == nullptr || !ex->stopped) continue;
                if (ex->thread.joinable()) dead.push_back(std::move(ex->thread));
            }
        }
        for (auto& t : dead) t.join();
        {
            const std::lock_guard lock(mu_);
            for (const NodeId node : mine) {
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
    inner_->recover_links(member);
    // The rejoin sequence is node-affine and ordered: run each step on its
    // owning node's executor and wait before the next (replica resets must
    // land before the join request goes out).
    for (auto& step : inner_->recover_steps(member)) {
        run_on_node(step.node, std::move(step.fn));
    }
}

bool TcpDeployment::run_on_node(NodeId node, std::function<void()> fn) {
    {
        const std::lock_guard lock(mu_);
        if (!threads_started_) {
            // Single-threaded still: the executor's loop is not running, so
            // inline execution is the same serialization.
            if (fn) fn();
            return true;
        }
        NodeExecutor* ex = find_executor(node);
        if (ex == nullptr || ex->stopped || shutdown_) return false;
    }
    std::promise<void> done;
    auto finished = done.get_future();
    post(node, [fn = std::move(fn), &done] {
        if (fn) fn();
        done.set_value();
    });
    finished.wait();
    return true;
}

std::optional<AppStateInfo> TcpDeployment::app_state_of(int member) {
    const std::vector<NodeId> nodes = inner_->nodes_of(member);
    if (nodes.empty()) return std::nullopt;
    std::optional<AppStateInfo> info;
    if (!run_on_node(nodes.front(), [this, member, &info] {
            info = inner_->app_state_of(member);
        })) {
        return std::nullopt;  // member is down
    }
    return info;
}

bool TcpDeployment::inject_fault(const FaultInjection& fault) {
    const std::optional<NodeId> home = inner_->fault_home(fault);
    if (!home) return inner_->inject_fault(fault);
    // The plan mutates Fso state owned by that node's loop; apply it there.
    post(*home, [this, fault] { inner_->inject_fault(fault); });
    return true;
}

bool TcpDeployment::fire_timeouts() {
    if (!inner_->has_liveness_timeouts()) return false;
    for (int member = 0; member < inner_->group_size(); ++member) {
        const std::vector<NodeId> nodes = inner_->nodes_of(member);
        if (nodes.empty()) continue;
        // Crashed members' executors drop the post: dead replicas do not
        // fire view changes.
        post(nodes.front(), [this, member] { inner_->fire_timeouts_member(member); });
    }
    return true;
}

void TcpDeployment::stop_perpetual() {
    for (int member = 0; member < inner_->group_size(); ++member) {
        const std::vector<NodeId> nodes = inner_->nodes_of(member);
        if (nodes.empty()) continue;
        post(nodes.front(), [this, member] { inner_->stop_perpetual_member(member); });
    }
}

}  // namespace failsig::deploy
