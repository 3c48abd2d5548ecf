#include "baseline/pbft_invocation.hpp"

namespace failsig::baseline {

PbftInvocation::PbftInvocation(orb::Orb& orb, const std::string& key, PbftServant& local_replica,
                               ReplicaId self, const BatchConfig& batch, obs::Obs* obs)
    : InvocationService(orb.simulation(), batch, obs, static_cast<int>(self)),
      local_replica_(local_replica),
      self_(self) {
    orb.activate(key, this);
}

void PbftInvocation::do_multicast(newtop::ServiceType, Bytes payload) {
    if (obs_ != nullptr) obs_->span(obs::Stage::kEncoded, payload, obs_member_);
    ClientRequest req;
    req.origin = self_;
    req.origin_seq = next_origin_seq_++;
    req.payload = std::move(payload);
    local_replica_.submit_local("request", req.encode());
}

void PbftInvocation::dispatch(const orb::Request& request) {
    if (request.operation == "recovered") {
        // After a state transfer the replica replays its commits from the
        // snapshot watermark + 1; whatever is held back belongs to the
        // pre-crash stream.
        if (request.args.size() != 8) return;
        ByteReader r(request.args);
        resume_deliveries_at(r.u64() + 1);
        return;
    }
    if (request.operation != "deliver") return;
    auto decoded = PbftDelivery::decode(request.args);
    if (!decoded.has_value()) return;
    PbftDelivery committed = std::move(decoded).value();
    newtop::Delivery d;
    d.delivery_seq = committed.seq;
    d.sender = committed.request.origin;
    d.sender_seq = committed.request.origin_seq;
    d.payload = std::move(committed.request.payload);
    deliver(std::move(d));
}

}  // namespace failsig::baseline
