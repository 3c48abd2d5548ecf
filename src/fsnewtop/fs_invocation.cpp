#include "fsnewtop/fs_invocation.hpp"

namespace failsig::fsnewtop {

FsInvocation::FsInvocation(fs::FsRuntime& rt, orb::Orb& orb, const std::string& key,
                           std::string gc_fs_name, const BatchConfig& batch, obs::Obs* obs,
                           int member)
    : InvocationService(orb.simulation(), batch, obs, member),
      gc_fs_name_(std::move(gc_fs_name)),
      client_(rt, orb, key) {
    client_.on_response(
        [this](const std::string& source, const std::string& operation, const Bytes& body) {
            if (source == gc_fs_name_ && operation == "deliver") {
                handle_delivery_bytes(body);
            }
        });
    client_.on_fail_signal([this](const std::string& source) {
        if (failure_handler_) failure_handler_(source);
    });
}

void FsInvocation::do_multicast(newtop::ServiceType service, Bytes payload) {
    if (obs_ != nullptr) obs_->span(obs::Stage::kEncoded, payload, obs_member_);
    newtop::MulticastRequest req;
    req.service = service;
    req.payload = std::move(payload);
    client_.send(gc_fs_name_, "multicast", req.encode());
}

}  // namespace failsig::fsnewtop
