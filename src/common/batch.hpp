// Request batching: the ordering pipeline's cost amortizer.
//
// Every protocol stack in this repo pays a per-round cost to order one
// application request: NewTOP runs a DATA/ACK exchange per multicast,
// FS-NewTOP additionally signs every protocol output inside the pair, and
// the PBFT baseline spends a three-phase exchange per pre-prepare. The
// `Batcher` coalesces requests submitted within a window into ONE ordered
// unit per round — a `Batch` frame the stack orders like any opaque payload
// — so k signatures / one protocol round are amortized over b requests
// (sharpening the paper's MAC-vs-signature cost argument under load).
// Receivers unbatch on delivery, so observer and invariant semantics are
// exactly those of b individual submissions in submission order.
//
// The accumulator is size- AND deadline-bounded: a batch flushes when it
// reaches `max_requests` entries or `max_bytes` payload bytes, and a lone
// request never waits longer than `flush_after` (armed when the first
// request opens a batch). Deadlines are scheduled through a caller-supplied
// hook, keeping this layer free of any simulator dependency.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace failsig {

/// Batching knobs, configurable per deployment (deploy::DeploymentSpec) and
/// per scenario. `max_requests <= 1` disables batching entirely: requests
/// pass through unframed and the wire format is byte-identical to a build
/// without this layer.
struct BatchConfig {
    /// Requests per ordered unit; <= 1 = batching off (passthrough).
    std::size_t max_requests{1};
    /// Flush early when accumulated payload bytes reach this.
    std::size_t max_bytes{64 * 1024};
    /// Upper bound on how long a request may wait for companions.
    Duration flush_after{2 * kMillisecond};

    [[nodiscard]] bool enabled() const { return max_requests > 1; }

    friend bool operator==(const BatchConfig&, const BatchConfig&) = default;
};

/// Deterministic counters proving the pipeline amortizes (pinned in
/// tests/test_pinned_counters.cpp; never wall-clock).
struct BatchStats {
    /// Requests entering the batcher (batched or passthrough).
    std::uint64_t requests_submitted{0};
    /// Requests that left inside a batch frame. With batching enabled this
    /// equals requests_submitted once all batches flushed.
    std::uint64_t requests_batched{0};
    /// Batch frames formed (ordered units put on the wire).
    std::uint64_t batches_formed{0};
    /// Flushes triggered by max_requests/max_bytes.
    std::uint64_t flushes_on_size{0};
    /// Flushes triggered by the flush_after deadline.
    std::uint64_t flushes_on_deadline{0};

    BatchStats& operator+=(const BatchStats& other);
};

/// Wire codec for a batch frame. A frame is distinguished from an opaque
/// application payload by a magic prefix; payloads in this repo are small
/// structured tags, so the collision risk is documented, not defended (a
/// production system would carry an explicit flag in the enclosing
/// protocol message instead).
class Batch {
public:
    static constexpr std::uint32_t kMagic = 0xFB47C4ED;

    /// True when `payload` starts with the batch magic.
    [[nodiscard]] static bool is_batch(std::span<const std::uint8_t> payload);

    /// Frames `requests` (in order) into one payload.
    [[nodiscard]] static Bytes encode(const std::vector<Bytes>& requests);

    /// Splits a frame back into the original requests, in order.
    static Result<std::vector<Bytes>> decode(std::span<const std::uint8_t> payload);
};

/// The accumulator: owns the pending window, flush triggers and counters.
/// Single-threaded by design — every user lives on a deterministic
/// simulation event loop (the Invocation layers of all three stacks).
class Batcher {
public:
    /// Receives each flushed unit: a batch frame (enabled) or the original
    /// payload unchanged (passthrough), plus the request count inside.
    using FlushFn = std::function<void(Bytes unit, std::size_t request_count)>;
    /// Schedules `fn` to run after `delay` (deployments pass the owning
    /// sim::Simulation's schedule_after).
    using Scheduler = std::function<void(Duration delay, std::function<void()> fn)>;

    Batcher(BatchConfig config, FlushFn flush, Scheduler scheduler);

    /// Submits one request; may flush synchronously (size bound reached) or
    /// arm the deadline timer (first request of a fresh batch).
    void submit(Bytes payload);

    /// Flushes any pending window immediately (counted as a size flush).
    void flush_now();

    [[nodiscard]] const BatchConfig& config() const { return cfg_; }
    [[nodiscard]] const BatchStats& stats() const { return stats_; }
    [[nodiscard]] std::size_t pending() const { return pending_.size(); }

private:
    void flush(bool on_deadline);

    BatchConfig cfg_;
    FlushFn flush_fn_;
    Scheduler scheduler_;
    std::vector<Bytes> pending_;
    std::size_t pending_bytes_{0};
    /// Invalidates in-flight deadline timers: a timer only flushes when the
    /// batch it was armed for is still the open one.
    std::uint64_t generation_{0};
    BatchStats stats_;
};

}  // namespace failsig
