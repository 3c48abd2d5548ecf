// The NewTOP Invocation service: the application-facing half of an NSO.
//
// "The former [Invocation service] allows the application to specify the
// type of NewTOP service needed and marshals a multicast message
// accordingly" (§3). On delivery it unmarshals and upcalls the application.
//
// `PlainInvocation` talks to a local crash-prone GC object (original
// NewTOP). The FS-NewTOP variant lives in fsnewtop/fs_invocation.hpp and the
// PBFT baseline's in baseline/pbft_invocation.hpp; all three expose the same
// InvocationService interface, so applications are untouched when crash
// tolerance is swapped for Byzantine tolerance — the paper's transparency
// claim.
#pragma once

#include <functional>
#include <map>

#include "common/batch.hpp"
#include "newtop/gc_service.hpp"
#include "obs/obs.hpp"

namespace failsig::newtop {

class InvocationService {
public:
    using DeliveryHandler = std::function<void(const Delivery&)>;
    using ViewHandler = std::function<void(const GroupView&)>;
    /// Invoked when the middleware itself fails non-benignly (FS-NewTOP only:
    /// fail-signal received for the local GC pair).
    using MiddlewareFailureHandler = std::function<void(const std::string& fs_name)>;

    virtual ~InvocationService() = default;

    InvocationService(const InvocationService&) = delete;
    InvocationService& operator=(const InvocationService&) = delete;

    /// Multicasts `payload` to the group with the requested service class.
    /// With batching configured, the payload may be coalesced with others
    /// submitted within the flush window into ONE ordered unit (a batch
    /// frame the stack orders like any opaque payload); delivery unbatches,
    /// so the application observes b individual upcalls in submission order
    /// either way. This is where FS-NewTOP's per-round signatures get
    /// amortized: one batch = one multicast = one signed protocol round.
    void multicast(ServiceType service, Bytes payload);

    /// Counters of the batching pipeline.
    [[nodiscard]] BatchStats batch_stats() const { return batcher_.stats(); }

    /// Restarts the delivery stream at position `seq`: whatever is held back
    /// belongs to the previous stream and is dropped. A rejoining member
    /// resumes at 1 (the wiped GC numbers its deliveries afresh); a PBFT
    /// replica resumes at its state-transfer watermark + 1.
    void resume_deliveries_at(std::uint64_t seq) {
        next_delivery_seq_ = seq;
        pending_deliveries_.clear();
    }

    void on_delivery(DeliveryHandler handler) { delivery_handler_ = std::move(handler); }
    void on_view(ViewHandler handler) { view_handler_ = std::move(handler); }
    void on_middleware_failure(MiddlewareFailureHandler handler) {
        failure_handler_ = std::move(handler);
    }

protected:
    /// `sim` arms the batcher's flush deadlines; `obs` (nullptr = off) is the
    /// run's observability context and `member` labels this layer's stamps.
    InvocationService(sim::Simulation& sim, const BatchConfig& batch, obs::Obs* obs, int member);

    /// Stack-specific submit path: hands one (possibly batch-framed) ordered
    /// unit to the ordering layer below (plain local GC / FS-wrapped GC pair
    /// / PBFT replica).
    virtual void do_multicast(ServiceType service, Bytes payload) = 0;

    /// The shared delivery path. Re-sequences on `d.delivery_seq`, the
    /// position in the ordering layer's delivery stream (1, 2, ...): each
    /// delivery travels as its own message and two can overtake each other
    /// on the wire, but the application must observe the stack's order. A
    /// position already released is a stale duplicate and is dropped.
    void deliver(Delivery d);
    /// Decodes a GC "deliver" body and hands it to deliver().
    void handle_delivery_bytes(const Bytes& body);

    MiddlewareFailureHandler failure_handler_;
    obs::Obs* obs_;
    int obs_member_;

private:
    void upcall(const Delivery& d);
    void upcall_single(const Delivery& d);
    /// Stamps kBatched for every request a flushed unit carries and links
    /// them to the unit's span (decodes the frame only when obs is on).
    void trace_flush(const Bytes& unit);

    std::uint64_t next_delivery_seq_{1};
    std::map<std::uint64_t, Delivery> pending_deliveries_;
    DeliveryHandler delivery_handler_;
    ViewHandler view_handler_;
    /// Always routed through the Batcher: with batching off it is a counted
    /// passthrough, so requests_submitted means the same thing on every
    /// stack.
    Batcher batcher_;
    /// Service class of the open batch; a submit with a different class
    /// flushes first (batches never mix ordering semantics).
    ServiceType batch_service_{ServiceType::kSymmetricTotalOrder};
};

/// Invocation service of the original, crash-tolerant NewTOP.
class PlainInvocation final : public InvocationService, public orb::Servant {
public:
    /// Registers under `key` on `orb`; `local_gc` is the collocated GC object.
    PlainInvocation(orb::Orb& orb, const std::string& key, GcServant& local_gc,
                    const BatchConfig& batch, obs::Obs* obs, int member);

    void dispatch(const orb::Request& request) override;

protected:
    void do_multicast(ServiceType service, Bytes payload) override;

private:
    GcServant& local_gc_;
};

}  // namespace failsig::newtop
