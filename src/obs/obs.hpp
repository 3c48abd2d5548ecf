// Per-run observability context: metrics registry + span tracker + flight
// recorder behind one nullable pointer.
//
// A scenario opts in (Scenario::obs.enabled); run_scenario then builds one
// Obs, binds it to the deployment's Simulation, and threads the pointer
// down through DeploymentSpec into the stacks. Every hot-path hook is
//
//     if (obs_ != nullptr) obs_->span(...);
//
// so a run without observability pays one predictable not-taken branch per
// potential stamp — cheap enough that the instrumentation stays compiled
// in (bench/e2e's obs.traced_cpu_ratio measures what tracing costs).
//
// The context is single-threaded by construction: it belongs to one run,
// and everything inside a run executes on that run's deterministic event
// loop. Sweep workers each own their run's context, so parallel sweeps
// need no locks and exports stay byte-identical across --jobs values.
#pragma once

#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace failsig::sim {
class Simulation;
}  // namespace failsig::sim

namespace failsig::obs {

/// The scenario-level knob (lives on scenario::Scenario as `obs`).
struct ObsConfig {
    bool enabled{false};

    friend bool operator==(const ObsConfig&, const ObsConfig&) = default;
};

class Obs {
public:
    Obs();

    /// Binds the time source: the deployment binds its Simulation during
    /// construction — stamps only read now() at event time, never before.
    /// The Simulation must stay alive while anything stamps.
    void bind(const sim::Simulation* sim) { sim_ = sim; }
    [[nodiscard]] TimePoint now() const;

    [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
    [[nodiscard]] SpanTracker& spans() { return spans_; }
    [[nodiscard]] FlightRecorder& flight() { return flight_; }

    /// One lifecycle stamp: hashes `payload`, stamps the span tracker and
    /// appends a flight-recorder entry at member's ring.
    void span(Stage stage, std::span<const std::uint8_t> payload, int member);

    /// Batcher flush: ordered unit `unit` carries request `request`.
    void span_link(std::span<const std::uint8_t> unit,
                   std::span<const std::uint8_t> request, int member);

    /// Non-span flight-recorder event (views, fail-signals, injected
    /// faults); member -1 = run-global.
    void note(int member, std::string what);

    /// Simulated crypto time attribution (FS-NewTOP's wrapper pools).
    void crypto_sign(Duration simulated_cost);
    void crypto_verify(Duration simulated_cost);

    /// Queue-depth sample from the GC's symmetric holdback buffers.
    void holdback_depth(std::int64_t depth);

    /// View-change flush round lifecycle for `member`'s GC: begin on entering
    /// the flushing state, end on installing the view. The elapsed sim time
    /// lands in the view.flush_duration_us histogram; state/done traffic and
    /// cut deliveries count into view.flush_messages / view.flushed_deliveries.
    /// Flush instruments register lazily on first use so runs that never
    /// change views (every fault-free campaign) export unchanged snapshots.
    void flush_begin(int member);
    void flush_end(int member);
    void flush_message();
    void flushed_deliveries(std::uint64_t n);

    /// The exported snapshot ("failsig-metrics-v1"); sim-tick stamped.
    [[nodiscard]] std::string metrics_json(const std::string& scenario) const;

private:
    const sim::Simulation* sim_{nullptr};
    MetricsRegistry metrics_;
    SpanTracker spans_;
    FlightRecorder flight_;
    Histogram& sign_us_;
    Histogram& verify_us_;
    Histogram& holdback_depth_hist_;
    // Lazily bound flush instruments (see flush_begin).
    Histogram* flush_duration_us_{nullptr};
    Counter* flush_messages_{nullptr};
    Counter* flushed_deliveries_{nullptr};
    std::map<int, TimePoint> flush_started_;
};

}  // namespace failsig::obs
