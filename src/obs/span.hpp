// Message-lifecycle spans: one multicast, seven stamps.
//
// Every application multicast — on any of the three stacks — passes through
// the same conceptual pipeline:
//
//   submit -> batched -> encoded -> net-send -> receive -> ordered -> delivered
//
// submit is the application handing the payload to the Invocation layer (or
// the PBFT deployment's submit path); batched is the batcher flushing it
// into an ordered unit; encoded is the unit being wrapped in the stack's
// protocol request; net-send is the first protocol broadcast carrying it
// (GC DATA / PBFT pre-prepare); receive is that broadcast arriving at a
// peer; ordered is the protocol placing it in the total order; delivered is
// the application upcall. The tracker attributes per-stage latency
// (batch wait, send latency, ordering latency, end-to-end) into the metrics
// registry's histograms, which is what finally lets the figure benches say
// *where* a stack pays its cost, not just how much.
//
// Spans are keyed by an FNV-1a hash of the payload bytes — workload
// payloads carry a unique (sender, seq) tag, and batch frames embed the
// request payloads — so no protocol wire format changes and no stack grows
// a tracing header. When the batcher coalesces b requests into one unit,
// link() records the unit under the earliest member request's submit time;
// with batching off the unit bytes ARE the request bytes and the keys
// coincide naturally.
//
// Stamps are recording-only. The protocol state machines stay pure: a tap
// never feeds anything back, so a run with spans enabled is byte-identical
// (trace and report) to one without.
#pragma once

#include <cstdint>
#include <map>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace failsig::obs {

enum class Stage : std::uint8_t {
    kSubmit = 0,
    kBatched = 1,
    kEncoded = 2,
    kNetSend = 3,
    kReceive = 4,
    kOrdered = 5,
    kDelivered = 6,
};

inline constexpr int kStageCount = 7;

/// Stable lowercase stage name ("submit", "net_send", ...): metric-name
/// component and flight-recorder label.
const char* stage_name(Stage stage);

class SpanTracker {
public:
    explicit SpanTracker(MetricsRegistry& metrics);

    /// Records one lifecycle stamp for the span keyed `key`, observed at
    /// member `member`, at sim tick `now`. Increments the stage counter and
    /// feeds the stage's latency histogram (measured from the span's submit
    /// stamp; a stamp whose submit was never seen — protocol-internal
    /// traffic — still counts but adds no latency sample).
    void stamp(Stage stage, std::uint64_t key, int member, TimePoint now);

    /// Declares that ordered unit `unit_key` carries request `request_key`
    /// (batcher flush). Stamps kBatched for the request and records the
    /// unit's reference time as the earliest linked submit, so later stages
    /// measured on the unit attribute latency to the requests inside it.
    void link(std::uint64_t unit_key, std::uint64_t request_key, int member, TimePoint now);

    /// Stage-stamp count observed so far (reads the underlying counter).
    [[nodiscard]] std::uint64_t stamps(Stage stage) const;

private:
    MetricsRegistry& metrics_;
    Counter* stage_counts_[kStageCount];
    Histogram& batch_wait_us_;
    Histogram& send_latency_us_;
    Histogram& order_latency_us_;
    Histogram& e2e_latency_us_;
    /// Span key -> submit tick. std::map keeps memory proportional to live
    /// spans; entries are dropped once every member delivered would need a
    /// member count the tracker does not know, so they live for the run —
    /// runs are bounded and keys are 16 bytes.
    std::map<std::uint64_t, TimePoint> submit_at_;
};

}  // namespace failsig::obs
