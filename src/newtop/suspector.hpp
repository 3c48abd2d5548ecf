// The crash-tolerant NewTOP failure suspector: periodically pings the other
// members' suspector modules and raises a (possibly false!) suspicion when a
// pong does not arrive within the timeout. When message delays exceed the
// timeout, connected-but-slow members get suspected — which is precisely how
// NewTOP groups split even without failures (paper §1, §3.1).
#pragma once

#include "newtop/gc_service.hpp"
#include "sim/simulation.hpp"

namespace failsig::newtop {

struct SuspectorOptions {
    Duration ping_interval = 200 * kMillisecond;
    Duration suspect_timeout = 800 * kMillisecond;
};

class PingSuspector final : public orb::Servant {
public:
    PingSuspector(sim::Simulation& sim, orb::Orb& orb, const std::string& key, MemberId self,
                  GcServant& local_gc, SuspectorOptions options);

    /// Other members' suspector object refs, keyed by member id.
    void set_peers(std::map<MemberId, orb::ObjectRef> peers);

    /// Begins the ping loop (call after set_peers).
    void start();
    /// Stops pinging; pending timers become no-ops.
    void stop();

    /// Crash-recovery: drops the suspicion of `member` and restarts its
    /// timeout from now. The last_heard_ refresh matters — leaving the stale
    /// (or defaulted-to-zero) timestamp would re-suspect the member on the
    /// very next tick, before its first pong can arrive.
    void forgive(MemberId member) {
        suspected_.erase(member);
        last_heard_[member] = sim_.now();
    }
    /// Recovering member: forget every suspicion accumulated pre-crash.
    void forgive_all() {
        suspected_.clear();
        for (const auto& [m, ref] : peers_) last_heard_[m] = sim_.now();
    }

    void dispatch(const orb::Request& request) override;

    [[nodiscard]] std::uint64_t suspicions_raised() const { return suspicions_raised_; }
    [[nodiscard]] const orb::ObjectRef& ref() const { return self_ref_; }

private:
    void tick();

    sim::Simulation& sim_;
    orb::Orb& orb_;
    MemberId self_;
    GcServant& local_gc_;
    SuspectorOptions options_;
    orb::ObjectRef self_ref_;
    std::map<MemberId, orb::ObjectRef> peers_;
    std::map<MemberId, TimePoint> last_heard_;
    std::set<MemberId> suspected_;
    bool running_{false};
    std::uint64_t suspicions_raised_{0};
};

}  // namespace failsig::newtop
