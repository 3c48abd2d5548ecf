#include "newtop/suspector.hpp"

namespace failsig::newtop {

PingSuspector::PingSuspector(sim::Simulation& sim, orb::Orb& orb, const std::string& key,
                             MemberId self, GcServant& local_gc, SuspectorOptions options)
    : sim_(sim), orb_(orb), self_(self), local_gc_(local_gc), options_(options) {
    self_ref_ = orb_.activate(key, this);
}

void PingSuspector::set_peers(std::map<MemberId, orb::ObjectRef> peers) {
    peers_ = std::move(peers);
}

void PingSuspector::start() {
    if (running_) return;
    running_ = true;
    for (const auto& [m, ref] : peers_) last_heard_[m] = sim_.now();
    tick();
}

void PingSuspector::stop() { running_ = false; }

void PingSuspector::tick() {
    if (!running_) return;
    const GroupView& view = local_gc_.service().view();
    for (const auto& [member, ref] : peers_) {
        if (!view.contains(member) || suspected_.contains(member)) continue;

        if (sim_.now() - last_heard_[member] > options_.suspect_timeout) {
            suspected_.insert(member);
            ++suspicions_raised_;
            ByteWriter w;
            w.u32(member);
            local_gc_.submit_local("suspect", w.take());
            continue;
        }
        ByteWriter ping;
        ping.u32(self_);
        orb_.invoke(ref, "ping", ping.take());
    }
    sim_.schedule_after(options_.ping_interval, [this] { tick(); });
}

void PingSuspector::dispatch(const orb::Request& request) {
    if (request.args.size() != 4) return;
    ByteReader r(request.args);
    const MemberId from = r.u32();

    if (request.operation == "ping") {
        const auto it = peers_.find(from);
        if (it == peers_.end()) return;
        ByteWriter pong;
        pong.u32(self_);
        orb_.invoke(it->second, "pong", pong.take());
    } else if (request.operation == "pong") {
        last_heard_[from] = sim_.now();
    }
}

}  // namespace failsig::newtop
