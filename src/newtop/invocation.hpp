// The NewTOP Invocation service: the application-facing half of an NSO.
//
// "The former [Invocation service] allows the application to specify the
// type of NewTOP service needed and marshals a multicast message
// accordingly" (§3). On delivery it unmarshals and upcalls the application.
//
// `PlainInvocation` talks to a local crash-prone GC object (original
// NewTOP). The FS-NewTOP variant lives in fsnewtop/fs_invocation.hpp; both
// expose the same InvocationService interface, so applications are untouched
// when crash tolerance is swapped for Byzantine tolerance — the paper's
// transparency claim.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "common/batch.hpp"
#include "newtop/gc_servant.hpp"
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

    /// Multicasts `payload` to the group with the requested service class.
    /// With batching configured, the payload may be coalesced with others
    /// submitted within the flush window into ONE ordered unit (a batch
    /// frame the GC orders like any opaque payload); delivery unbatches, so
    /// the application observes b individual upcalls in submission order
    /// either way. This is where FS-NewTOP's per-round signatures get
    /// amortized: one batch = one multicast = one signed protocol round.
    void multicast(ServiceType service, Bytes payload);

    /// Enables request batching on this member's submit path. `sim` supplies
    /// the deadline timer for flush_after. Call before the first multicast.
    void configure_batching(sim::Simulation& sim, BatchConfig config);

    /// Counters of the batching pipeline ({} when batching is off).
    [[nodiscard]] BatchStats batch_stats() const {
        return batcher_ ? batcher_->stats() : BatchStats{};
    }

    /// Attaches the run's observability context (nullptr = off). `member`
    /// labels this invocation's stamps in the flight recorder.
    void set_obs(obs::Obs* obs, int member) {
        obs_ = obs;
        obs_member_ = member;
    }

    /// Crash-recovery reset: re-arms the delivery resequencer so the
    /// rejoined GC's restarted delivery stream (seq 1, 2, ...) is accepted.
    /// Call before submitting the GC's "__rejoin".
    void prepare_rejoin() {
        next_delivery_seq_ = 1;
        pending_deliveries_.clear();
    }

    void on_delivery(DeliveryHandler handler) { delivery_handler_ = std::move(handler); }
    void on_view(ViewHandler handler) { view_handler_ = std::move(handler); }
    void on_middleware_failure(MiddlewareFailureHandler handler) {
        failure_handler_ = std::move(handler);
    }

protected:
    /// Stack-specific submit path: hands one (possibly batch-framed) ordered
    /// unit to the GC below (plain local GC / FS-wrapped GC pair).
    virtual void do_multicast(ServiceType service, Bytes payload) = 0;

    /// Common unmarshalling/re-sequencing/upcall path used by both variants.
    void handle_delivery_bytes(const Bytes& body);
    void upcall(const Delivery& d);
    void upcall_single(const Delivery& d);

    std::uint64_t next_delivery_seq_{1};
    std::map<std::uint64_t, Delivery> pending_deliveries_;
    DeliveryHandler delivery_handler_;
    ViewHandler view_handler_;
    MiddlewareFailureHandler failure_handler_;
    obs::Obs* obs_{nullptr};
    int obs_member_{-1};

private:
    /// Stamps kBatched for every request a flushed unit carries and links
    /// them to the unit's span (decodes the frame only when obs is on).
    void trace_flush(const Bytes& unit);

    std::unique_ptr<Batcher> batcher_;
    /// Service class of the open batch; a submit with a different class
    /// flushes first (batches never mix ordering semantics).
    ServiceType batch_service_{ServiceType::kSymmetricTotalOrder};
};

/// Invocation service of the original, crash-tolerant NewTOP.
class PlainInvocation final : public InvocationService, public orb::Servant {
public:
    /// Registers under `key` on `orb`; `local_gc` is the collocated GC object.
    PlainInvocation(orb::Orb& orb, const std::string& key, GcServant& local_gc);

    void dispatch(const orb::Request& request) override;

    [[nodiscard]] const orb::ObjectRef& ref() const { return self_ref_; }

protected:
    void do_multicast(ServiceType service, Bytes payload) override;

private:
    GcServant& local_gc_;
    orb::ObjectRef self_ref_;
};

}  // namespace failsig::newtop
