#include "baseline/pbft.hpp"

#include <iterator>

#include "crypto/md5.hpp"

namespace failsig::baseline {

PbftReplica::PbftReplica(PbftConfig config) : cfg_(std::move(config)) {
    ensure(cfg_.n >= 4, "PBFT baseline needs n >= 4 (3f+1 with f >= 1)");
    app_ = app::KvStore(cfg_.checkpoint_interval);
}

Duration PbftReplica::processing_cost(const std::string& operation, const Bytes& body) const {
    (void)operation;
    return cfg_.protocol_op_cost + static_cast<Duration>(body.size()) / 100;
}

std::vector<fs::Outbound> PbftReplica::process(const std::string& operation, const Bytes& body) {
    Out out;
    if (operation == "request") {
        auto req = ClientRequest::decode(body);
        if (req.has_value()) on_request(req.value(), out);
    } else if (operation == "pbft") {
        auto msg = PbftMessage::decode(body);
        if (msg.has_value()) on_pbft(msg.value(), out);
    } else if (operation == "timeout") {
        if (body.size() == 8) {
            ByteReader r(body);
            on_timeout(r.u64(), out);
        }
    } else if (operation == "recover") {
        begin_recovery(out);
    }
    return out;
}

void PbftReplica::on_request(const ClientRequest& request, Out& out) {
    if (recovering_) return;  // no ordering duties until the snapshot lands
    if (!seen_requests_.insert({request.origin, request.origin_seq}).second) return;
    if (is_primary()) {
        assign_and_prepreprepare(request, out);
    } else {
        // Keep a copy so a timeout/view change can re-propose, and broadcast
        // the request to every replica (the PBFT client fallback path) so
        // all of them hold liveness evidence against a silent primary.
        pending_.push_back(request);
        PbftMessage relay;
        relay.kind = PbftKind::kPrePrepare;  // reused as a forwarded request
        relay.sender = cfg_.self;
        relay.view = view_;
        relay.request = request;
        broadcast(relay, out);
    }
}

void PbftReplica::assign_and_prepreprepare(const ClientRequest& request, Out& out) {
    // The primary hands the ordered unit's pre-prepare to the network — the
    // span's net-send stage.
    if (cfg_.obs != nullptr) {
        cfg_.obs->span(obs::Stage::kNetSend, request.payload, cfg_.obs_member);
    }
    const std::uint64_t seq = next_assign_++;
    PbftMessage pp;
    pp.kind = PbftKind::kPrePrepare;
    pp.sender = cfg_.self;
    pp.view = view_;
    pp.seq = seq;
    pp.request = request;
    pp.digest = crypto::md5(request.encode());
    broadcast(pp, out);

    Slot& slot = slots_[seq];
    note_log_occupancy();
    slot.pre_prepared = true;
    slot.request = request;
    slot.digest = pp.digest;
    slot.prepares.insert(cfg_.self);
    maybe_prepare(seq, out);
}

void PbftReplica::on_pbft(const PbftMessage& msg, Out& out) {
    // A recovering replica holds no usable log: everything except the state
    // transfer it asked for is noise until the snapshot lands.
    if (recovering_ && msg.kind != PbftKind::kStateReply) return;
    switch (msg.kind) {
        case PbftKind::kPrePrepare: {
            if (msg.sender != primary()) {
                // A forwarded request from a non-primary replica.
                if (!seen_requests_.insert({msg.request.origin, msg.request.origin_seq}).second) {
                    return;
                }
                if (is_primary()) {
                    assign_and_prepreprepare(msg.request, out);
                } else {
                    pending_.push_back(msg.request);  // liveness evidence
                }
                return;
            }
            if (msg.view != view_) return;
            // Below the stable checkpoint the slot is truncated history;
            // re-creating it would unbound the log again.
            if (msg.seq <= stable_checkpoint_) return;
            // A primary pre-prepare carrying the ordered unit = the span's
            // receive stage (prepare/commit rounds are protocol-internal).
            if (cfg_.obs != nullptr) {
                cfg_.obs->span(obs::Stage::kReceive, msg.request.payload, cfg_.obs_member);
            }
            Slot& slot = slots_[msg.seq];
            note_log_occupancy();
            if (slot.pre_prepared && slot.digest != msg.digest) return;  // equivocation
            slot.pre_prepared = true;
            slot.request = msg.request;
            slot.digest = msg.digest;
            slot.prepares.insert(msg.sender);
            slot.prepares.insert(cfg_.self);

            PbftMessage prep;
            prep.kind = PbftKind::kPrepare;
            prep.sender = cfg_.self;
            prep.view = view_;
            prep.seq = msg.seq;
            prep.digest = msg.digest;
            broadcast(prep, out);
            maybe_prepare(msg.seq, out);
            break;
        }
        case PbftKind::kPrepare: {
            if (msg.view != view_) return;
            if (msg.seq <= stable_checkpoint_) return;
            Slot& slot = slots_[msg.seq];
            note_log_occupancy();
            if (slot.pre_prepared && slot.digest != msg.digest) return;
            slot.prepares.insert(msg.sender);
            maybe_prepare(msg.seq, out);
            break;
        }
        case PbftKind::kCommit: {
            if (msg.view != view_) return;
            if (msg.seq <= stable_checkpoint_) return;
            Slot& slot = slots_[msg.seq];
            note_log_occupancy();
            slot.commits.insert(msg.sender);
            maybe_commit(msg.seq, out);
            break;
        }
        case PbftKind::kViewChange: {
            if (msg.view <= view_) return;
            auto& votes = view_change_votes_[msg.view];
            votes.insert(msg.sender);
            // Join rule: once f+1 replicas demand the view change, follow
            // them even without local timeout evidence.
            if (!votes.contains(cfg_.self) && votes.size() >= f() + 1) {
                votes.insert(cfg_.self);
                PbftMessage vc;
                vc.kind = PbftKind::kViewChange;
                vc.sender = cfg_.self;
                vc.view = msg.view;
                broadcast(vc, out);
            }
            if (votes.size() >= 2 * f() + 1 && msg.view > view_) {
                view_ = msg.view;
                ++view_changes_;
                if (is_primary()) {
                    PbftMessage nv;
                    nv.kind = PbftKind::kNewView;
                    nv.sender = cfg_.self;
                    nv.view = view_;
                    broadcast(nv, out);
                    // Re-propose everything we know about but have not
                    // delivered (simplified new-view).
                    for (const auto& req : pending_) {
                        assign_and_prepreprepare(req, out);
                    }
                    pending_.clear();
                }
            }
            break;
        }
        case PbftKind::kNewView: {
            if (msg.view > view_ &&
                msg.sender == static_cast<ReplicaId>(msg.view % cfg_.n)) {
                view_ = msg.view;
                ++view_changes_;
                // Resend pending requests to the new primary.
                for (const auto& req : pending_) {
                    PbftMessage relay;
                    relay.kind = PbftKind::kPrePrepare;
                    relay.sender = cfg_.self;
                    relay.view = view_;
                    relay.request = req;
                    send_to(primary(), relay, out);
                }
            }
            break;
        }
        case PbftKind::kCheckpoint: {
            on_checkpoint(msg, out);
            break;
        }
        case PbftKind::kStateRequest: {
            serve_state(msg.sender, out);
            break;
        }
        case PbftKind::kStateReply: {
            on_state_reply(msg, out);
            break;
        }
    }
}

void PbftReplica::on_timeout(std::uint64_t view, Out& out) {
    // Liveness dependence: progress stalls until this timeout elects view+1.
    if (recovering_) return;
    if (view != view_) return;  // stale timer
    if (next_deliver_ >= next_assign_ && pending_.empty()) return;  // no work stuck
    PbftMessage vc;
    vc.kind = PbftKind::kViewChange;
    vc.sender = cfg_.self;
    vc.view = view_ + 1;
    broadcast(vc, out);
    view_change_votes_[vc.view].insert(cfg_.self);
}

void PbftReplica::maybe_prepare(std::uint64_t seq, Out& out) {
    Slot& slot = slots_[seq];
    // Prepared: pre-prepare + 2f matching prepares.
    if (!slot.pre_prepared || slot.committed) return;
    if (slot.prepares.size() < 2 * f() + 1) return;
    slot.committed = true;  // "prepared" certificate reached; emit commit
    slot.commits.insert(cfg_.self);

    PbftMessage commit;
    commit.kind = PbftKind::kCommit;
    commit.sender = cfg_.self;
    commit.view = view_;
    commit.seq = seq;
    commit.digest = slot.digest;
    broadcast(commit, out);
    maybe_commit(seq, out);
}

void PbftReplica::maybe_commit(std::uint64_t seq, Out& out) {
    Slot& slot = slots_[seq];
    if (!slot.committed || slot.delivered) return;
    if (slot.commits.size() < 2 * f() + 1) return;
    try_deliver(out);
}

void PbftReplica::try_deliver(Out& out) {
    while (true) {
        const auto it = slots_.find(next_deliver_);
        if (it == slots_.end()) break;
        Slot& slot = it->second;
        if (!slot.committed || slot.commits.size() < 2 * f() + 1 || !slot.pre_prepared) break;
        if (!slot.delivered) {
            slot.delivered = true;
            deliver(next_deliver_, slot.request, out);
            maybe_checkpoint(next_deliver_, out);
        }
        ++next_deliver_;
    }
}

void PbftReplica::deliver(std::uint64_t seq, const ClientRequest& request, Out& out) {
    app_.apply(request.payload);
    if (cfg_.obs != nullptr) {
        cfg_.obs->span(obs::Stage::kOrdered, request.payload, cfg_.obs_member);
    }
    // Retire the request from the pending backlog (it is now ordered).
    std::erase_if(pending_, [&](const ClientRequest& r) {
        return r.origin == request.origin && r.origin_seq == request.origin_seq;
    });
    PbftDelivery d;
    d.seq = seq;
    d.request = request;
    out.emplace_back(cfg_.delivery, "deliver", d.encode());
}

// ---------------------------------------------------------------------------
// Checkpointing, log truncation and state-transfer recovery
// ---------------------------------------------------------------------------

void PbftReplica::note_log_occupancy() {
    if (slots_.size() > log_slots_retained_) log_slots_retained_ = slots_.size();
}

void PbftReplica::maybe_checkpoint(std::uint64_t seq, Out& out) {
    if (cfg_.checkpoint_interval == 0 || seq % cfg_.checkpoint_interval != 0) return;
    // Snapshot the app at this delivery watermark and seek a quorum on its
    // digest; the snapshot is retained locally until the watermark turns
    // stable (or a later one supersedes it).
    ByteWriter dw;
    dw.u64(app_.digest());
    Bytes digest = dw.take();
    checkpoint_snapshots_[seq] = app_.snapshot();
    ++checkpoints_taken_;

    PbftMessage cp;
    cp.kind = PbftKind::kCheckpoint;
    cp.sender = cfg_.self;
    cp.view = view_;
    cp.seq = seq;
    cp.digest = digest;
    broadcast(cp, out);
    checkpoint_votes_[{seq, digest}].insert(cfg_.self);
    maybe_stabilize(seq, digest);
}

void PbftReplica::on_checkpoint(const PbftMessage& msg, Out& out) {
    (void)out;
    if (msg.seq <= stable_checkpoint_) return;
    checkpoint_votes_[{msg.seq, msg.digest}].insert(msg.sender);
    maybe_stabilize(msg.seq, msg.digest);
}

void PbftReplica::maybe_stabilize(std::uint64_t seq, const Bytes& digest) {
    const auto votes = checkpoint_votes_.find({seq, digest});
    if (votes == checkpoint_votes_.end() || votes->second.size() < 2 * f() + 1) return;
    // Truncation is only safe once *this* replica has delivered through seq
    // and holds the matching snapshot; a lagging replica re-checks when its
    // own checkpoint at seq forms.
    if (!votes->second.contains(cfg_.self)) return;
    const auto snap = checkpoint_snapshots_.find(seq);
    if (snap == checkpoint_snapshots_.end()) return;
    stable_checkpoint_ = seq;
    stable_snapshot_ = snap->second;
    // The fix for the unbounded ordered log: drop every slot at or below the
    // stable watermark — its effect lives on in the stable snapshot.
    const auto first_kept = slots_.upper_bound(seq);
    log_slots_truncated_ +=
        static_cast<std::uint64_t>(std::distance(slots_.begin(), first_kept));
    slots_.erase(slots_.begin(), first_kept);
    checkpoint_snapshots_.erase(checkpoint_snapshots_.begin(),
                                checkpoint_snapshots_.upper_bound(seq));
    for (auto it = checkpoint_votes_.begin(); it != checkpoint_votes_.end();) {
        it = it->first.first <= seq ? checkpoint_votes_.erase(it) : std::next(it);
    }
}

void PbftReplica::begin_recovery(Out& out) {
    // A recovering replica's log, backlog and app state are untrusted: wipe
    // them and rebuild from a peer's stable snapshot + committed suffix.
    recovering_ = true;
    slots_.clear();
    pending_.clear();
    seen_requests_.clear();
    view_change_votes_.clear();
    checkpoint_snapshots_.clear();
    checkpoint_votes_.clear();
    stable_checkpoint_ = 0;
    stable_snapshot_.clear();
    next_assign_ = 1;
    next_deliver_ = 1;
    app_ = app::KvStore(cfg_.checkpoint_interval);
    if (cfg_.obs != nullptr) {
        cfg_.obs->note(cfg_.obs_member, "pbft replica requests state transfer");
    }
    PbftMessage req;
    req.kind = PbftKind::kStateRequest;
    req.sender = cfg_.self;
    req.view = view_;
    broadcast(req, out);
}

void PbftReplica::serve_state(ReplicaId requester, Out& out) {
    if (requester == cfg_.self) return;
    RecoveryState st;
    st.view = view_;
    st.snapshot_watermark = stable_checkpoint_;
    st.last_delivered = next_deliver_ - 1;
    if (stable_checkpoint_ != 0) st.app_snapshot = stable_snapshot_;
    for (std::uint64_t seq = stable_checkpoint_ + 1; seq < next_deliver_; ++seq) {
        const auto it = slots_.find(seq);
        if (it == slots_.end() || !it->second.delivered) return;  // gap: cannot serve
        st.suffix.emplace_back(seq, it->second.request);
    }
    ++state_transfers_served_;
    PbftMessage reply;
    reply.kind = PbftKind::kStateReply;
    reply.sender = cfg_.self;
    reply.view = view_;
    reply.seq = st.last_delivered;
    reply.request.origin = cfg_.self;
    reply.request.payload = st.encode();
    send_to(requester, reply, out);
}

void PbftReplica::on_state_reply(const PbftMessage& msg, Out& out) {
    if (!recovering_) return;  // first valid reply wins
    auto decoded = RecoveryState::decode(msg.request.payload);
    if (!decoded.has_value()) return;
    const RecoveryState& st = decoded.value();
    app::KvStore restored(cfg_.checkpoint_interval);
    if (st.snapshot_watermark != 0 && !restored.restore(st.app_snapshot).has_value()) {
        return;  // corrupt snapshot: wait for another peer's reply
    }
    // Tell the Invocation layer where the replayed stream restarts BEFORE
    // any replayed delivery reaches it: it resets its re-sequencer to S+1.
    ByteWriter w;
    w.u64(st.snapshot_watermark);
    out.emplace_back(cfg_.delivery, "recovered", w.take());

    app_ = std::move(restored);
    stable_checkpoint_ = st.snapshot_watermark;
    stable_snapshot_ = st.app_snapshot;
    view_ = std::max(view_, st.view);
    next_deliver_ = st.snapshot_watermark + 1;
    recovering_ = false;
    for (const auto& [seq, req] : st.suffix) {
        seen_requests_.insert({req.origin, req.origin_seq});
        deliver(seq, req, out);
        next_deliver_ = seq + 1;
        maybe_checkpoint(seq, out);
    }
    next_assign_ = std::max(next_assign_, next_deliver_);
    ++recoveries_completed_;
    if (cfg_.obs != nullptr) {
        cfg_.obs->note(cfg_.obs_member,
                       "pbft replica rejoined at seq " + std::to_string(next_deliver_ - 1));
    }
}

void PbftReplica::broadcast(const PbftMessage& msg, Out& out) {
    fs::Outbound o;
    o.operation = "pbft";
    o.body = msg.encode();
    for (const auto& [r, dest] : cfg_.peers) {
        if (r != cfg_.self) o.dests.push_back(dest);
    }
    if (!o.dests.empty()) out.push_back(std::move(o));
}

void PbftReplica::send_to(ReplicaId r, const PbftMessage& msg, Out& out) {
    const auto it = cfg_.peers.find(r);
    if (it == cfg_.peers.end()) return;
    out.emplace_back(it->second, "pbft", msg.encode());
}

}  // namespace failsig::baseline
