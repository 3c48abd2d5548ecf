// The PBFT baseline's Invocation layer: the same application-facing
// InvocationService NewTOP and FS-NewTOP applications use, over a local
// PBFT replica instead of a GC object. Submissions become ClientRequests at
// the replica; commit upcalls join the shared delivery path, re-sequenced on
// the replica's commit sequence.
#pragma once

#include "baseline/pbft.hpp"
#include "newtop/invocation.hpp"

namespace failsig::baseline {

class PbftInvocation final : public newtop::InvocationService, public orb::Servant {
public:
    /// Registers under `key` on `orb`; `local_replica` is the collocated
    /// replica, whose commit upcalls ("deliver", "recovered") address `key`.
    PbftInvocation(orb::Orb& orb, const std::string& key, PbftServant& local_replica,
                   ReplicaId self, const BatchConfig& batch, obs::Obs* obs);

    void dispatch(const orb::Request& request) override;

protected:
    /// One ClientRequest per ordered unit, numbered per replica from 1: with
    /// batching on, one pre-prepare carries b application requests.
    void do_multicast(newtop::ServiceType service, Bytes payload) override;

private:
    PbftServant& local_replica_;
    ReplicaId self_;
    std::uint64_t next_origin_seq_{1};
};

}  // namespace failsig::baseline
