// The FS-NewTOP Invocation service (paper §3.1).
//
// Same application-facing interface as newtop::PlainInvocation, but the GC
// below it is a fail-signal *pair*. The interceptor duties of the paper —
// submit each call to both GC and GC', verify and strip double signatures on
// responses, suppress duplicates — are delegated to an fs::FsClient. From
// the application's point of view nothing changed; that transparency is the
// point of the structured approach.
#pragma once

#include "fs/client.hpp"
#include "newtop/invocation.hpp"

namespace failsig::fsnewtop {

class FsInvocation final : public newtop::InvocationService {
public:
    /// `gc_fs_name` is the logical name of this member's FS-wrapped GC
    /// (e.g. "GC:2"). The FsClient registers under `key` on `orb`.
    FsInvocation(fs::FsRuntime& rt, orb::Orb& orb, const std::string& key,
                 std::string gc_fs_name, const BatchConfig& batch, obs::Obs* obs, int member);

    /// The object reference GC deliveries must be addressed to (used when
    /// building the pair's GcConfig).
    [[nodiscard]] const orb::ObjectRef& delivery_ref() const { return client_.ref(); }

    [[nodiscard]] const fs::FsClient& client() const { return client_; }

    /// Sends a raw control operation (e.g. "__rejoin") to the GC pair,
    /// outside the multicast marshalling path.
    void send_control(const std::string& operation, Bytes body) {
        client_.send(gc_fs_name_, operation, std::move(body));
    }

protected:
    /// One FsClient::send per ordered unit — with batching on, ONE signed
    /// envelope (and one FS protocol round: order record, compare match,
    /// countersigned outputs) carries b application requests, which is the
    /// amortized-signature measurement of the paper's cost trade-off.
    void do_multicast(newtop::ServiceType service, Bytes payload) override;

private:
    std::string gc_fs_name_;
    fs::FsClient client_;
};

}  // namespace failsig::fsnewtop
