// Simulated fixed-size worker pool modelling a node's request-handling
// threads.
//
// NewTOP/FS-NewTOP "have a configurable thread pool with a default of 10
// threads to handle incoming requests" (paper §4) — and the paper explains
// the Figure 7 throughput hump with exactly this pool. Tasks are submitted
// with an explicit CPU cost (from the CostModel); at most `workers` tasks are
// in service at once and the rest queue FIFO, reproducing the contention
// behaviour of a real ORB thread pool on simulated time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/simulation.hpp"

namespace failsig::sim {

class SimThreadPool {
public:
    SimThreadPool(Simulation& sim, int workers);

    /// Enqueues a task costing `cost` CPU time; `on_complete` runs when the
    /// task finishes executing.
    void submit(Duration cost, std::function<void()> on_complete);

    /// Like submit(), but the task goes to a high-priority lane that drains
    /// before the normal queue (FIFO within the lane). Used for
    /// latency-critical control messages that must not wait behind bulk
    /// work, e.g. the FS Order records and single-signed outputs.
    void submit_priority(Duration cost, std::function<void()> on_complete);

    [[nodiscard]] int workers() const { return workers_; }
    [[nodiscard]] int busy() const { return busy_; }
    [[nodiscard]] std::uint64_t tasks_completed() const { return tasks_completed_; }
    [[nodiscard]] Duration busy_time() const { return busy_time_; }

private:
    struct Task {
        Duration cost;
        std::function<void()> fn;
    };

    void start(Task task);
    void finish(Task task);

    Simulation& sim_;
    int workers_;
    int busy_{0};
    std::deque<Task> priority_queue_;
    std::deque<Task> queue_;
    std::uint64_t tasks_completed_{0};
    Duration busy_time_{0};
};

}  // namespace failsig::sim
