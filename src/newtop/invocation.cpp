#include "newtop/invocation.hpp"

namespace failsig::newtop {

InvocationService::InvocationService(sim::Simulation& sim, const BatchConfig& batch,
                                     obs::Obs* obs, int member)
    : obs_(obs),
      obs_member_(member),
      batcher_(
          batch,
          [this](Bytes unit, std::size_t) {
              if (obs_ != nullptr) trace_flush(unit);
              do_multicast(batch_service_, std::move(unit));
          },
          [&sim](Duration delay, std::function<void()> fn) {
              sim.schedule_after(delay, std::move(fn));
          }) {}

void InvocationService::multicast(ServiceType service, Bytes payload) {
    if (obs_ != nullptr) obs_->span(obs::Stage::kSubmit, payload, obs_member_);
    if (batcher_.pending() > 0 && service != batch_service_) batcher_.flush_now();
    batch_service_ = service;
    batcher_.submit(std::move(payload));
}

void InvocationService::trace_flush(const Bytes& unit) {
    if (Batch::is_batch(unit)) {
        if (auto requests = Batch::decode(unit); requests.has_value()) {
            for (const auto& request : requests.value()) {
                obs_->span_link(unit, request, obs_member_);
            }
            return;
        }
    }
    obs_->span_link(unit, unit, obs_member_);  // passthrough: unit == request
}

void InvocationService::handle_delivery_bytes(const Bytes& body) {
    auto delivery = Delivery::decode(body);
    if (delivery.has_value()) deliver(std::move(delivery).value());
}

void InvocationService::deliver(Delivery d) {
    const std::uint64_t seq = d.delivery_seq;
    if (seq < next_delivery_seq_) return;  // stale duplicate
    pending_deliveries_.emplace(seq, std::move(d));
    while (true) {
        const auto it = pending_deliveries_.find(next_delivery_seq_);
        if (it == pending_deliveries_.end()) break;
        upcall(it->second);
        pending_deliveries_.erase(it);
        ++next_delivery_seq_;
    }
}

void InvocationService::upcall(const Delivery& d) {
    if (d.kind == Delivery::Kind::kView) {
        if (view_handler_) view_handler_(d.view);
        return;
    }
    if (Batch::is_batch(d.payload)) {
        // One ordered unit carrying b requests: unbatch into b upcalls in
        // batch order, so the application sees exactly the b submissions.
        auto requests = Batch::decode(d.payload);
        if (requests.has_value()) {
            Delivery sub = d;
            for (auto& payload : std::move(requests).value()) {
                sub.payload = std::move(payload);
                upcall_single(sub);
            }
            return;
        }
        // Malformed frame (or an application payload colliding with the
        // magic): fall through and deliver it opaquely.
    }
    upcall_single(d);
}

void InvocationService::upcall_single(const Delivery& d) {
    if (obs_ != nullptr) obs_->span(obs::Stage::kDelivered, d.payload, obs_member_);
    if (delivery_handler_) delivery_handler_(d);
}

PlainInvocation::PlainInvocation(orb::Orb& orb, const std::string& key, GcServant& local_gc,
                                 const BatchConfig& batch, obs::Obs* obs, int member)
    : InvocationService(orb.simulation(), batch, obs, member), local_gc_(local_gc) {
    orb.activate(key, this);
}

void PlainInvocation::do_multicast(ServiceType service, Bytes payload) {
    if (obs_ != nullptr) obs_->span(obs::Stage::kEncoded, payload, obs_member_);
    MulticastRequest req;
    req.service = service;
    req.payload = std::move(payload);
    local_gc_.submit_local("multicast", req.encode());
}

void PlainInvocation::dispatch(const orb::Request& request) {
    if (request.operation != "deliver" || !request.args.is<Bytes>()) return;
    handle_delivery_bytes(request.args.as<Bytes>());
}

}  // namespace failsig::newtop
