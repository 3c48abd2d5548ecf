#include "newtop/gc_service.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace failsig::newtop {

namespace {
/// Per-byte payload handling cost (buffer copies, Java-era marshalling): a
/// 10 kB DATA message costs ~5 ms more, the Figure-8 fall-off with size.
constexpr double kPerByteCostUs = 0.5;

/// Lexicographic (timestamp, member) comparison used for both symmetric-order
/// delivery position and stability checks.
bool ts_pair_greater(std::uint64_t a_ts, MemberId a_id, std::uint64_t b_ts, MemberId b_id) {
    if (a_ts != b_ts) return a_ts > b_ts;
    return a_id > b_id;
}
}  // namespace

GcService::GcService(GcConfig config)
    : cfg_(std::move(config)), app_(cfg_.checkpoint_interval) {
    view_.view_id = 1;
    view_.members = cfg_.initial_members;
    std::sort(view_.members.begin(), view_.members.end());
    highest_view_seen_ = 1;
    vc_.assign(cfg_.initial_members.size(), 0);
    for (const auto m : view_.members) {
        latest_ts_[m] = 0;
        causal_delivered_[m] = 0;
        fifo_next_[m] = 1;
        sym_stream_next_[m] = 1;
    }
}

std::size_t GcService::member_index(MemberId m) const {
    const auto it = std::find(cfg_.initial_members.begin(), cfg_.initial_members.end(), m);
    return static_cast<std::size_t>(it - cfg_.initial_members.begin());
}

Duration GcService::processing_cost(const std::string& operation, const Bytes& body) const {
    (void)operation;
    // Buffer-management cost grows with the undelivered backlog: when the
    // group runs past its ordering capacity, stability checks scan ever
    // larger buffers and the degradation compounds (this produces the
    // throughput fall-off beyond the Figure-7 peak).
    const Duration backlog_cost =
        std::min<Duration>(static_cast<Duration>(sym_buffer_.size()) * 5, 2000);
    return cfg_.protocol_op_cost + backlog_cost +
           static_cast<Duration>(kPerByteCostUs * static_cast<double>(body.size()));
}

std::vector<fs::Outbound> GcService::process(const std::string& operation, const Bytes& body) {
    Out out;
    if (operation == "multicast") {
        auto req = MulticastRequest::decode(body);
        if (req.has_value()) on_multicast(req.value(), out);
    } else if (operation == "gc") {
        auto msg = GcMessage::decode(body);
        if (msg.has_value()) on_gc_message(msg.value(), out);
    } else if (operation == "suspect") {
        if (body.size() == 4) {
            ByteReader r(body);
            on_suspect(r.u32(), out);
        }
    } else if (operation == fs::kFailSignalOp) {
        // FS-NewTOP's suspector module: a fail-signal uniquely identifies a
        // faulty FS process, so this suspicion cannot be false (§3.1).
        const auto it = cfg_.fs_members.find(string_of(body));
        if (it != cfg_.fs_members.end()) on_suspect(it->second, out);
    } else if (operation == "__rejoin") {
        begin_rejoin(out);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Input dispatch
// ---------------------------------------------------------------------------

void GcService::on_multicast(const MulticastRequest& request, Out& out) {
    if (flush_pending_ != 0) {
        // View-synchronous gate: no new traffic enters the old view once the
        // flush has started. Held requests are replayed into the new view by
        // install_view.
        flush_held_multicasts_.push_back(request);
        return;
    }
    // The GC is about to hand the payload's protocol message(s) to the
    // network (broadcast or sequencer send) — the span's net-send stage.
    if (cfg_.obs != nullptr) {
        cfg_.obs->span(obs::Stage::kNetSend, request.payload, cfg_.obs_member);
    }
    switch (request.service) {
        case ServiceType::kSymmetricTotalOrder: {
            ++lamport_;
            GcMessage msg;
            msg.kind = GcKind::kData;
            msg.sender = cfg_.self;
            msg.service = ServiceType::kSymmetricTotalOrder;
            msg.sender_seq = ++sym_seq_;
            msg.stream_seq = ++sym_stream_out_;
            msg.lamport_ts = lamport_;
            msg.payload = request.payload;
            broadcast(msg, out);
            handle_sym_data(msg, out);
            break;
        }
        case ServiceType::kAsymmetricTotalOrder: {
            GcMessage msg;
            msg.kind = GcKind::kData;
            msg.sender = cfg_.self;
            msg.service = ServiceType::kAsymmetricTotalOrder;
            msg.sender_seq = ++asym_seq_;
            msg.payload = request.payload;
            if (cfg_.self == sequencer()) {
                handle_asym_data(msg, out);
            } else {
                send_to(sequencer(), msg, out);
            }
            break;
        }
        case ServiceType::kCausalOrder: {
            ++vc_[member_index(cfg_.self)];
            GcMessage msg;
            msg.kind = GcKind::kData;
            msg.sender = cfg_.self;
            msg.service = ServiceType::kCausalOrder;
            msg.vector_clock = vc_;
            msg.payload = request.payload;
            broadcast(msg, out);
            // Own messages are causally ready by construction.
            causal_delivered_[cfg_.self] = vc_[member_index(cfg_.self)];
            Delivery d;
            d.sender = cfg_.self;
            d.service = ServiceType::kCausalOrder;
            d.payload = msg.payload;
            deliver(std::move(d), out);
            break;
        }
        case ServiceType::kReliableMulticast: {
            GcMessage msg;
            msg.kind = GcKind::kData;
            msg.sender = cfg_.self;
            msg.service = ServiceType::kReliableMulticast;
            msg.sender_seq = ++rel_seq_;
            msg.payload = request.payload;
            broadcast(msg, out);
            fifo_next_[cfg_.self] = msg.sender_seq + 1;
            Delivery d;
            d.sender = cfg_.self;
            d.service = ServiceType::kReliableMulticast;
            d.sender_seq = msg.sender_seq;
            d.payload = msg.payload;
            deliver(std::move(d), out);
            break;
        }
        case ServiceType::kUnreliableMulticast: {
            GcMessage msg;
            msg.kind = GcKind::kData;
            msg.sender = cfg_.self;
            msg.service = ServiceType::kUnreliableMulticast;
            msg.payload = request.payload;
            broadcast(msg, out);
            Delivery d;
            d.sender = cfg_.self;
            d.service = ServiceType::kUnreliableMulticast;
            d.payload = msg.payload;
            deliver(std::move(d), out);
            break;
        }
    }
}

void GcService::on_gc_message(const GcMessage& msg, Out& out) {
    // View and join protocol messages are accepted from outside the current
    // view (proposed members, a rejoining member, grants that overtake the
    // install on the wire); all other traffic must come from a view member.
    const bool is_view_msg = msg.kind == GcKind::kViewPropose || msg.kind == GcKind::kFlushState ||
                             msg.kind == GcKind::kFlushDone || msg.kind == GcKind::kJoinRequest ||
                             msg.kind == GcKind::kJoinGrant;
    if (joining_ && !is_view_msg) {
        // Mid-join the local protocol positions are meaningless; park the
        // ordinary traffic and replay it once the grants define where the
        // streams resume (stale entries are then dropped by the per-stream
        // duplicate checks).
        join_deferred_.push_back(msg);
        return;
    }
    if (!is_view_msg && !view_.contains(msg.sender)) return;

    // Payload-carrying peer traffic = the span's receive stage (ACKs and
    // view-protocol messages are protocol-internal, not message lifecycle).
    if (cfg_.obs != nullptr && (msg.kind == GcKind::kData || msg.kind == GcKind::kOrder)) {
        cfg_.obs->span(obs::Stage::kReceive, msg.payload, cfg_.obs_member);
    }

    switch (msg.kind) {
        case GcKind::kData:
            switch (msg.service) {
                case ServiceType::kSymmetricTotalOrder:
                    enqueue_sym_stream(msg, out);
                    break;
                case ServiceType::kAsymmetricTotalOrder: handle_asym_data(msg, out); break;
                case ServiceType::kCausalOrder: handle_causal_data(msg, out); break;
                case ServiceType::kReliableMulticast: handle_rel_data(msg, out); break;
                case ServiceType::kUnreliableMulticast: {
                    Delivery d;
                    d.sender = msg.sender;
                    d.service = ServiceType::kUnreliableMulticast;
                    d.payload = msg.payload;
                    deliver(std::move(d), out);
                    break;
                }
            }
            break;
        case GcKind::kAck: enqueue_sym_stream(msg, out); break;
        case GcKind::kOrder: handle_asym_order(msg, out); break;
        case GcKind::kViewPropose: handle_view_propose(msg, out); break;
        case GcKind::kFlushState: handle_flush_state(msg, out); break;
        case GcKind::kFlushDone: handle_flush_done(msg, out); break;
        case GcKind::kJoinRequest: handle_join_request(msg, out); break;
        case GcKind::kJoinGrant: handle_join_grant(msg, out); break;
    }
}

void GcService::on_suspect(MemberId member, Out& out) {
    if (member == cfg_.self || !view_.contains(member)) return;
    if (!suspected_.insert(member).second) return;
    FAILSIG_LOG(LogLevel::kDebug, GC) << "member " << cfg_.self << " suspects " << member;
    maybe_propose_view(out);
}

// ---------------------------------------------------------------------------
// Symmetric total order
// ---------------------------------------------------------------------------

void GcService::enqueue_sym_stream(const GcMessage& msg, Out& out) {
    // Re-sequence each sender's DATA/ACK stream: the stability rule below is
    // only sound when clock announcements from a sender arrive in the order
    // they were made.
    auto& next = sym_stream_next_[msg.sender];
    if (next == 0) next = 1;
    if (msg.stream_seq < next) return;  // stale duplicate
    auto& holdback = sym_holdback_[msg.sender];
    holdback[msg.stream_seq] = msg;
    if (cfg_.obs != nullptr) {
        cfg_.obs->holdback_depth(static_cast<std::int64_t>(holdback.size()));
    }
    while (true) {
        const auto it = holdback.find(next);
        if (it == holdback.end()) break;
        const GcMessage m = it->second;
        holdback.erase(it);
        ++next;
        if (flush_pending_ != 0) {
            // Mid-flush the resequencer keeps running (stream positions must
            // stay contiguous) but nothing may mutate ordering state: the
            // FlushState we announced has to stay an accurate snapshot.
            // Deferred traffic is replayed after the install, filtered
            // against the new view and the post-cut watermark.
            flush_deferred_.push_back(m);
            continue;
        }
        if (m.kind == GcKind::kAck) {
            handle_sym_ack(m);
            check_sym_delivery(out);
        } else {
            bump_clock(m.lamport_ts);
            handle_sym_data(m, out);
        }
    }
}

void GcService::handle_sym_data(const GcMessage& msg, Out& out) {
    sym_buffer_[{msg.lamport_ts, msg.sender}] = msg;
    auto& sender_ts = latest_ts_[msg.sender];
    sender_ts = std::max(sender_ts, msg.lamport_ts);

    // Logically acknowledge to every member: announce our advanced clock.
    // This is what makes the symmetric protocol "significantly message
    // intensive" (§4) — n*(n-1) ACKs circulate per multicast.
    ++lamport_;
    GcMessage ack;
    ack.kind = GcKind::kAck;
    ack.sender = cfg_.self;
    ack.stream_seq = ++sym_stream_out_;
    ack.lamport_ts = lamport_;
    // Piggyback our delivery watermark on fields every ACK already encodes
    // (global_seq/origin are dead weight for kAck): peers use it to prune
    // their flush retention log without any new message or wire-size change.
    ack.global_seq = sym_watermark_.first;
    ack.origin = sym_watermark_.second;
    broadcast(ack, out);
    latest_ts_[cfg_.self] = std::max(latest_ts_[cfg_.self], lamport_);

    check_sym_delivery(out);
}

void GcService::handle_sym_ack(const GcMessage& msg) {
    bump_clock(msg.lamport_ts);
    auto& ts = latest_ts_[msg.sender];
    ts = std::max(ts, msg.lamport_ts);
    auto& mark = peer_watermark_[msg.sender];
    if (ts_pair_greater(msg.global_seq, msg.origin, mark.first, mark.second)) {
        mark = {msg.global_seq, msg.origin};
        prune_sym_retained();
    }
}

void GcService::check_sym_delivery(Out& out) {
    while (!sym_buffer_.empty()) {
        const auto& [key, msg] = *sym_buffer_.begin();
        const auto [msg_ts, msg_sender] = key;
        // Stable iff every current member's announced clock has passed the
        // message's (ts, sender) position.
        bool stable = true;
        for (const auto m : view_.members) {
            const auto it = latest_ts_.find(m);
            const std::uint64_t seen = it == latest_ts_.end() ? 0 : it->second;
            if (!ts_pair_greater(seen, m, msg_ts, msg_sender)) {
                stable = false;
                break;
            }
        }
        if (!stable) break;

        Delivery d;
        d.sender = msg.sender;
        d.service = ServiceType::kSymmetricTotalOrder;
        d.sender_seq = msg.sender_seq;
        d.payload = msg.payload;
        // Remember what we delivered: a view-change flush may have to
        // re-supply this body to a peer that never received it.
        sym_watermark_ = key;
        sym_retained_[key] = msg;
        if (sym_retained_.size() > kSymRetainedCap) {
            // Cap eviction is not a watermark prune: nobody proved every
            // peer delivered this entry. Remember the key so a later flush
            // can tell whether the cap actually opened an agreement gap.
            sym_evicted_.insert(sym_retained_.begin()->first);
            ++flush_log_evictions_;
            sym_retained_.erase(sym_retained_.begin());
        }
        sym_buffer_.erase(sym_buffer_.begin());
        deliver(std::move(d), out);
    }
}

// ---------------------------------------------------------------------------
// Asymmetric (sequencer) total order
// ---------------------------------------------------------------------------

void GcService::handle_asym_data(const GcMessage& msg, Out& out) {
    if (cfg_.self != sequencer()) return;  // stale: we are no longer sequencer
    GcMessage order;
    order.kind = GcKind::kOrder;
    order.sender = cfg_.self;
    order.service = ServiceType::kAsymmetricTotalOrder;
    order.global_seq = asym_next_assign_++;
    order.origin = msg.sender;
    order.sender_seq = msg.sender_seq;
    order.payload = msg.payload;
    broadcast(order, out);
    handle_asym_order(order, out);
}

void GcService::handle_asym_order(const GcMessage& msg, Out& out) {
    if (msg.sender != sequencer() && msg.sender != cfg_.self) {
        // Only the current sequencer may assign order. (A freshly installed
        // view changes the sequencer; stale assignments are dropped.)
        if (!view_.contains(msg.sender)) return;
    }
    highest_order_seen_ = std::max(highest_order_seen_, msg.global_seq);
    asym_next_assign_ = std::max(asym_next_assign_, highest_order_seen_ + 1);
    asym_buffer_[msg.global_seq] = msg;
    check_asym_delivery(out);
}

void GcService::check_asym_delivery(Out& out) {
    while (true) {
        const auto it = asym_buffer_.find(asym_next_deliver_);
        if (it == asym_buffer_.end()) break;
        Delivery d;
        d.sender = it->second.origin;
        d.service = ServiceType::kAsymmetricTotalOrder;
        d.sender_seq = it->second.sender_seq;
        d.payload = it->second.payload;
        // Keep the ordered record for flush patch-up (the asym protocol has
        // no ACK to piggyback watermarks on, so retention is cap-bounded).
        asym_retained_[it->first] = it->second;
        if (asym_retained_.size() > kAsymRetainedCap) {
            asym_evicted_.insert(asym_retained_.begin()->first);
            ++flush_log_evictions_;
            asym_retained_.erase(asym_retained_.begin());
        }
        asym_buffer_.erase(it);
        ++asym_next_deliver_;
        deliver(std::move(d), out);
    }
}

// ---------------------------------------------------------------------------
// Causal order
// ---------------------------------------------------------------------------

void GcService::handle_causal_data(const GcMessage& msg, Out& out) {
    if (msg.vector_clock.size() != vc_.size()) return;  // malformed
    causal_buffer_.push_back(msg);
    check_causal_delivery(out);
}

void GcService::check_causal_delivery(Out& out) {
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto it = causal_buffer_.begin(); it != causal_buffer_.end(); ++it) {
            const GcMessage& m = *it;
            const std::size_t j = member_index(m.sender);
            bool ready = m.vector_clock[j] == causal_delivered_[m.sender] + 1;
            if (ready) {
                for (const auto k : view_.members) {
                    if (k == m.sender) continue;
                    if (m.vector_clock[member_index(k)] > causal_delivered_[k]) {
                        ready = false;
                        break;
                    }
                }
            }
            if (!ready) continue;

            causal_delivered_[m.sender] = m.vector_clock[j];
            // Merge the sender's knowledge into our clock.
            for (std::size_t i = 0; i < vc_.size(); ++i) {
                vc_[i] = std::max(vc_[i], m.vector_clock[i]);
            }
            Delivery d;
            d.sender = m.sender;
            d.service = ServiceType::kCausalOrder;
            d.payload = m.payload;
            causal_buffer_.erase(it);
            deliver(std::move(d), out);
            progressed = true;
            break;  // iterator invalidated; rescan
        }
    }
}

// ---------------------------------------------------------------------------
// Reliable FIFO multicast
// ---------------------------------------------------------------------------

void GcService::handle_rel_data(const GcMessage& msg, Out& out) {
    auto& next = fifo_next_[msg.sender];
    if (msg.sender_seq < next) return;  // duplicate
    fifo_buffer_[msg.sender][msg.sender_seq] = msg;
    auto& buf = fifo_buffer_[msg.sender];
    while (true) {
        const auto it = buf.find(next);
        if (it == buf.end()) break;
        Delivery d;
        d.sender = msg.sender;
        d.service = ServiceType::kReliableMulticast;
        d.sender_seq = it->second.sender_seq;
        d.payload = it->second.payload;
        buf.erase(it);
        ++next;
        deliver(std::move(d), out);
    }
}

// ---------------------------------------------------------------------------
// Partitionable membership
// ---------------------------------------------------------------------------

void GcService::maybe_propose_view(Out& out) {
    std::vector<MemberId> candidates;
    for (const auto m : view_.members) {
        if (!suspected_.contains(m)) candidates.push_back(m);
    }
    for (const auto j : join_pending_) {
        if (!suspected_.contains(j) && !view_.contains(j)) candidates.push_back(j);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    if (candidates.empty()) return;
    // The coordinator is the lowest *survivor*: a pending joiner has no
    // ordering state to merge a flush from, so it never leads — not even a
    // member that restarted before anyone excluded it, which is still in the
    // view (the same rule as plausible_coordinator).
    const auto coord = std::find_if(candidates.begin(), candidates.end(), [&](MemberId m) {
        return view_.contains(m) && !join_pending_.contains(m);
    });
    if (coord == candidates.end() || *coord != cfg_.self) return;  // not the coordinator

    const std::uint64_t id =
        std::max({view_.view_id, last_proposed_id_, highest_view_seen_}) + 1;
    last_proposed_id_ = id;

    if (candidates.size() == 1) {
        // Sole survivor: nobody left to flush with; our own history is the
        // cut and the post-install stability re-check releases it.
        install_view(id, candidates, out);
        return;
    }
    // Open the flush round for this proposal and seed it with our own state.
    // A re-propose (survivor crashed mid-flush) lands here again with a
    // higher id: a fresh round is keyed in, and stale states are ignored.
    enter_flush(id);
    auto& round = flush_rounds_[id];
    round.members = candidates;
    merge_flush_state(round, cfg_.self, local_flush_state());
    GcMessage propose;
    propose.kind = GcKind::kViewPropose;
    propose.sender = cfg_.self;
    propose.view_id = id;
    propose.view_members = candidates;
    for (const auto m : candidates) {
        if (m != cfg_.self) send_to(m, propose, out);
    }
}

void GcService::handle_view_propose(const GcMessage& msg, Out& out) {
    highest_view_seen_ = std::max(highest_view_seen_, msg.view_id);
    if (msg.view_id <= view_.view_id) return;
    if (suspected_.contains(msg.sender)) return;  // we do not follow a suspect
    if (std::find(msg.view_members.begin(), msg.view_members.end(), cfg_.self) ==
        msg.view_members.end()) {
        return;  // we are excluded; our own partition will regroup
    }
    if (!plausible_coordinator(msg)) return;

    // Accepting the proposal starts the flush: freeze old-view traffic and
    // hand the coordinator our watermarks plus every old-view body we can
    // still supply, so the merged cut covers what any survivor is missing.
    // The FlushState is also our acceptance of the proposal.
    enter_flush(msg.view_id);
    GcMessage state;
    state.kind = GcKind::kFlushState;
    state.sender = cfg_.self;
    state.view_id = msg.view_id;
    state.payload = local_flush_state().encode();
    send_to(msg.sender, state, out);
    if (cfg_.obs != nullptr) cfg_.obs->flush_message();
}

void GcService::install_view(std::uint64_t view_id, std::vector<MemberId> members, Out& out) {
    view_.view_id = view_id;
    view_.members = std::move(members);
    highest_view_seen_ = std::max(highest_view_seen_, view_id);
    FAILSIG_LOG(LogLevel::kInfo, GC)
        << "member " << cfg_.self << " installs " << newtop::to_string(view_);

    // Close the flush epoch: the round (if any) is decided, retention logs
    // restart for the new view, and stale rounds can never complete.
    const bool was_flushing = flush_pending_ != 0 && flush_pending_ <= view_id;
    if (was_flushing) flush_pending_ = 0;
    std::erase_if(flush_rounds_, [&](const auto& kv) { return kv.first <= view_id; });
    sym_retained_.clear();
    asym_retained_.clear();
    sym_evicted_.clear();
    asym_evicted_.clear();
    for (auto it = peer_watermark_.begin(); it != peer_watermark_.end();) {
        it = view_.contains(it->first) ? std::next(it) : peer_watermark_.erase(it);
    }
    if (was_flushing && cfg_.obs != nullptr) cfg_.obs->flush_end(cfg_.obs_member);

    // Drop state belonging to removed members.
    for (auto it = latest_ts_.begin(); it != latest_ts_.end();) {
        it = view_.contains(it->first) ? std::next(it) : latest_ts_.erase(it);
    }
    for (auto it = sym_holdback_.begin(); it != sym_holdback_.end();) {
        it = view_.contains(it->first) ? std::next(it) : sym_holdback_.erase(it);
    }
    std::erase_if(suspected_, [&](MemberId m) { return !view_.contains(m); });

    Delivery d;
    d.kind = Delivery::Kind::kView;
    d.view = view_;
    deliver(std::move(d), out);

    // Stability and delivery conditions may be satisfiable now.
    check_sym_delivery(out);
    check_asym_delivery(out);
    check_causal_delivery(out);

    // Replay the sym stream that was deferred during the flush. Traffic from
    // removed members is dropped (everyone drops it — membership is agreed),
    // and DATA at or below the post-cut watermark was already delivered via
    // the cut. ACKs always replay: clock announcements are monotone.
    const std::vector<GcMessage> deferred = std::move(flush_deferred_);
    flush_deferred_.clear();
    for (const auto& m : deferred) {
        if (!view_.contains(m.sender)) continue;
        if (m.kind == GcKind::kAck) {
            handle_sym_ack(m);
            check_sym_delivery(out);
        } else {
            if (!ts_pair_greater(m.lamport_ts, m.sender, sym_watermark_.first,
                                 sym_watermark_.second)) {
                continue;
            }
            bump_clock(m.lamport_ts);
            handle_sym_data(m, out);
        }
    }

    // Grant any joiner admitted by this view its state transfer NOW — after
    // the cut and the deferred replay (so the snapshot covers every old-view
    // delivery) but before any new-view send below. A send before the grant
    // would carry a stream position at or below the grant's resume point and
    // the joiner would drop it as stale, losing its effect forever.
    send_join_grants(out);

    // Release application traffic held during the flush into the new view.
    const std::vector<MulticastRequest> held = std::move(flush_held_multicasts_);
    flush_held_multicasts_.clear();
    for (const auto& r : held) on_multicast(r, out);

    // If suspicions remain inside the new view (e.g. two members failed) or
    // a join request arrived too late for this round, keep reconfiguring.
    if (!suspected_.empty() || !join_pending_.empty()) maybe_propose_view(out);

    // A joiner may have collected its full grant set before the install
    // reached it (FS outputs travel as independent signed streams).
    if (joining_) maybe_complete_join(out);
}

bool GcService::plausible_coordinator(const GcMessage& msg) const {
    // The expected coordinator is the lowest listed member that is not a
    // joiner: joiners have no ordering state and never lead a flush. With no
    // join in progress this degenerates to the original front()==sender rule.
    for (const auto m : msg.view_members) {
        if (join_pending_.contains(m)) continue;
        if (joining_ && m == cfg_.self) continue;
        return m == msg.sender;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Rejoin (crash recovery)
//
// A recovered member starts from nothing: "__rejoin" wipes the service back
// to a singleton group and broadcasts kJoinRequest. Survivors fold the
// joiner into the next membership round — the ordinary view-synchronous
// flush runs with the joiner as a (state-less) participant, so the install
// point doubles as the state-transfer barrier: at install every survivor
// has delivered the full old-view prefix, and each sends the joiner a
// kJoinGrant with its protocol positions plus the replicated app snapshot.
// The joiner adopts the lowest-id granter's cut wholesale, resumes every
// per-sender stream at the granted position, and replays traffic it parked
// while joining (stale entries fall to the per-stream duplicate checks).
// ---------------------------------------------------------------------------

void GcService::begin_rejoin(Out& out) {
    // Forget everything the crash destroyed: restart as a singleton group
    // holding only our identity, then ask the survivors for readmission.
    // Cumulative counters survive — they describe the process lifetime, not
    // the group epoch.
    view_.view_id = 1;
    view_.members = {cfg_.self};
    highest_view_seen_ = 1;
    suspected_.clear();
    lamport_ = 0;
    sym_seq_ = 0;
    sym_buffer_.clear();
    latest_ts_.clear();
    latest_ts_[cfg_.self] = 0;
    sym_stream_out_ = 0;
    sym_stream_next_.clear();
    sym_stream_next_[cfg_.self] = 1;
    sym_holdback_.clear();
    asym_seq_ = 0;
    asym_next_assign_ = 1;
    asym_next_deliver_ = 1;
    highest_order_seen_ = 0;
    asym_buffer_.clear();
    vc_.assign(cfg_.initial_members.size(), 0);
    causal_delivered_.clear();
    causal_delivered_[cfg_.self] = 0;
    causal_buffer_.clear();
    rel_seq_ = 0;
    fifo_next_.clear();
    fifo_next_[cfg_.self] = 1;
    fifo_buffer_.clear();
    last_proposed_id_ = 0;
    flush_pending_ = 0;
    flush_rounds_.clear();
    flush_deferred_.clear();
    flush_held_multicasts_.clear();
    sym_watermark_ = {0, 0};
    sym_retained_.clear();
    asym_retained_.clear();
    sym_evicted_.clear();
    asym_evicted_.clear();
    peer_watermark_.clear();
    join_pending_.clear();
    join_grants_.clear();
    join_grant_view_ = 0;
    join_deferred_.clear();
    delivery_out_seq_ = 0;
    app_ = app::KvStore(cfg_.checkpoint_interval);
    joining_ = true;
    FAILSIG_LOG(LogLevel::kInfo, GC) << "member " << cfg_.self << " requests rejoin";
    if (cfg_.obs != nullptr) cfg_.obs->note(cfg_.obs_member, "rejoin requested");

    GcMessage req;
    req.kind = GcKind::kJoinRequest;
    req.sender = cfg_.self;
    // Broadcast by peer directory, not by view (our view is just us).
    for (const auto& [m, dest] : cfg_.peers) {
        if (m == cfg_.self) continue;
        out.emplace_back(dest, "gc", req.encode());
    }
}

void GcService::handle_join_request(const GcMessage& msg, Out& out) {
    if (msg.sender == cfg_.self || joining_) return;
    join_pending_.insert(msg.sender);
    suspected_.erase(msg.sender);
    // The joiner restarts its outgoing streams from scratch; stale resume
    // positions from its previous incarnation would drop everything it sends
    // as duplicates. Causal state is NOT reset: the joiner adopts the group's
    // vector clock (its old slot included) from the grant, so its next causal
    // send continues the old numbering.
    sym_stream_next_[msg.sender] = 1;
    sym_holdback_.erase(msg.sender);
    fifo_next_[msg.sender] = 1;
    fifo_buffer_.erase(msg.sender);
    peer_watermark_.erase(msg.sender);
    FAILSIG_LOG(LogLevel::kInfo, GC)
        << "member " << cfg_.self << " sees join request from " << msg.sender;
    if (cfg_.obs != nullptr) cfg_.obs->note(cfg_.obs_member, "join request received");
    maybe_propose_view(out);
}

void GcService::handle_join_grant(const GcMessage& msg, Out& out) {
    if (!joining_) return;
    auto grant = JoinGrant::decode(msg.payload);
    if (!grant.has_value()) return;
    // Grants are keyed by the view that admitted us; a re-propose mid-join
    // supersedes earlier grants wholesale.
    if (msg.view_id > join_grant_view_) {
        join_grants_.clear();
        join_grant_view_ = msg.view_id;
    }
    if (msg.view_id != join_grant_view_) return;  // stale
    join_grants_[msg.sender] = std::move(grant).value();
    maybe_complete_join(out);
}

void GcService::send_join_grants(Out& out) {
    if (joining_ || join_pending_.empty()) return;
    std::vector<MemberId> grantees;
    for (const auto j : join_pending_) {
        if (view_.contains(j) && j != cfg_.self) grantees.push_back(j);
    }
    if (grantees.empty()) return;
    JoinGrant grant;
    grant.lamport = lamport_;
    grant.sym_stream_out = sym_stream_out_;
    grant.rel_seq = rel_seq_;
    const std::size_t self_idx = member_index(cfg_.self);
    grant.causal_out = self_idx < vc_.size() ? vc_[self_idx] : 0;
    grant.sym_watermark_ts = sym_watermark_.first;
    grant.sym_watermark_sender = sym_watermark_.second;
    grant.asym_next_deliver = asym_next_deliver_;
    grant.asym_next_assign = asym_next_assign_;
    grant.vector_clock = vc_;
    grant.app_snapshot = app_.snapshot();
    GcMessage msg;
    msg.kind = GcKind::kJoinGrant;
    msg.sender = cfg_.self;
    msg.view_id = view_.view_id;
    msg.payload = grant.encode();
    for (const auto j : grantees) {
        send_to(j, msg, out);
        join_pending_.erase(j);
    }
    if (cfg_.obs != nullptr) cfg_.obs->note(cfg_.obs_member, "join grant sent");
}

void GcService::maybe_complete_join(Out& out) {
    if (!joining_) return;
    // Completion needs the admitting view installed AND a grant from every
    // survivor in it (grants and the install travel as independent streams
    // under FS and may arrive in either order).
    if (view_.view_id != join_grant_view_) return;
    for (const auto m : view_.members) {
        if (m == cfg_.self) continue;
        if (!join_grants_.contains(m)) return;
    }
    if (join_grants_.empty()) return;

    // The lowest-id granter's cut is adopted wholesale: its watermark, asym
    // positions, vector clock, and app snapshot describe one consistent
    // delivered prefix. (At the install barrier every survivor has applied
    // the same flush cut, so the choice is arbitrary for the totally ordered
    // state; taking one granter's view keeps it internally consistent.)
    const auto& g0 = join_grants_.begin()->second;
    if (const auto restored = app_.restore(g0.app_snapshot); !restored.has_value()) {
        if (cfg_.obs != nullptr) {
            cfg_.obs->note(cfg_.obs_member, "join grant app snapshot rejected");
        }
    }
    sym_watermark_ = {g0.sym_watermark_ts, g0.sym_watermark_sender};
    asym_next_deliver_ = g0.asym_next_deliver;
    asym_next_assign_ = g0.asym_next_assign;
    highest_order_seen_ = asym_next_assign_ - 1;
    if (g0.vector_clock.size() == vc_.size()) vc_ = g0.vector_clock;
    for (const auto m : view_.members) {
        const std::size_t idx = member_index(m);
        if (idx < vc_.size()) causal_delivered_[m] = vc_[idx];
    }
    std::uint64_t max_lamport = 0;
    for (const auto& [g, grant] : join_grants_) {
        sym_stream_next_[g] = grant.sym_stream_out + 1;
        latest_ts_[g] = grant.lamport;
        fifo_next_[g] = grant.rel_seq + 1;
        max_lamport = std::max(max_lamport, grant.lamport);
    }
    lamport_ = max_lamport;
    latest_ts_[cfg_.self] = lamport_;

    joining_ = false;
    join_grants_.clear();
    join_grant_view_ = 0;
    ++rejoins_completed_;
    FAILSIG_LOG(LogLevel::kInfo, GC)
        << "member " << cfg_.self << " rejoin complete in view " << view_.view_id;
    if (cfg_.obs != nullptr) cfg_.obs->note(cfg_.obs_member, "rejoin complete");

    // Replay what arrived while we were joining. Per-stream duplicate checks
    // drop anything at or below the granted resume points; entries that are
    // provably pre-join (ordered below the adopted positions) are filtered
    // here so they cannot sit in the hold-back buffers forever.
    const std::vector<GcMessage> deferred = std::move(join_deferred_);
    join_deferred_.clear();
    for (const auto& m : deferred) {
        if (!view_.contains(m.sender)) continue;
        if (m.kind == GcKind::kOrder && m.global_seq < asym_next_deliver_) continue;
        if (m.kind == GcKind::kData && m.service == ServiceType::kCausalOrder) {
            const std::size_t j = member_index(m.sender);
            if (j < vc_.size() && m.vector_clock.size() == vc_.size() &&
                m.vector_clock[j] <= causal_delivered_[m.sender]) {
                continue;  // pre-join causal send, already in the adopted state
            }
        }
        on_gc_message(m, out);
    }
}

// ---------------------------------------------------------------------------
// View-synchronous flush
//
// Why: without a flush, a member excluded while its multicasts are in flight
// can leave *correct* survivors disagreeing on the delivered prefix (one
// survivor received and delivered the partial broadcast, another never saw
// it). The flush makes installation view-synchronous: survivors freeze
// old-view traffic, pool everything they can still supply, and deliver one
// deterministically merged cut before the new view takes effect.
//
// Fault tolerance: rounds are keyed by proposal id. A survivor crashing
// mid-flush triggers a re-propose with a higher id (existing suspicion
// logic); enter_flush simply tracks the highest id, stale kFlushState /
// kFlushDone messages fail the id check and are dropped, and install_view
// erases every round at or below the installed id.
// ---------------------------------------------------------------------------

void GcService::enter_flush(std::uint64_t proposal_id) {
    if (proposal_id <= flush_pending_) return;
    const bool entering = flush_pending_ == 0;
    flush_pending_ = proposal_id;
    if (!entering) return;  // re-propose while flushing: stay gated, higher id
    FAILSIG_LOG(LogLevel::kDebug, GC)
        << "member " << cfg_.self << " enters flush for proposal " << proposal_id;
    if (cfg_.obs != nullptr) cfg_.obs->flush_begin(cfg_.obs_member);
}

FlushState GcService::local_flush_state() const {
    FlushState st;
    st.sym_watermark_ts = sym_watermark_.first;
    st.sym_watermark_sender = sym_watermark_.second;
    st.asym_delivered = asym_next_deliver_ - 1;
    // Everything we can still supply: undelivered buffers plus the retained
    // log of recent deliveries (a peer may have missed what we delivered).
    for (const auto& [key, m] : sym_retained_) st.entries.push_back(m);
    for (const auto& [key, m] : sym_buffer_) st.entries.push_back(m);
    for (const auto& [seq, m] : asym_retained_) st.entries.push_back(m);
    for (const auto& [seq, m] : asym_buffer_) st.entries.push_back(m);
    return st;
}

void GcService::merge_flush_state(FlushRound& round, MemberId sender, const FlushState& state) {
    round.sym_marks[sender] = {state.sym_watermark_ts, state.sym_watermark_sender};
    round.asym_marks[sender] = state.asym_delivered;
    for (const auto& e : state.entries) {
        if (e.kind == GcKind::kOrder) {
            round.asym_entries.emplace(e.global_seq, e);
        } else if (e.kind == GcKind::kData && e.service == ServiceType::kSymmetricTotalOrder) {
            round.sym_entries.emplace(std::make_pair(e.lamport_ts, e.sender), e);
        }
        // Entries of any other kind are not flushable; ignore them.
    }
}

void GcService::handle_flush_state(const GcMessage& msg, Out& out) {
    if (msg.view_id != last_proposed_id_) return;  // stale round
    const auto it = flush_rounds_.find(msg.view_id);
    if (it == flush_rounds_.end()) return;
    FlushRound& round = it->second;
    if (std::find(round.members.begin(), round.members.end(), msg.sender) ==
        round.members.end()) {
        return;
    }
    if (round.sym_marks.contains(msg.sender)) return;  // duplicate
    auto state = FlushState::decode(msg.payload);
    if (!state.has_value()) return;
    merge_flush_state(round, msg.sender, state.value());
    if (cfg_.obs != nullptr) cfg_.obs->flush_message();
    maybe_complete_flush(out);
}

void GcService::maybe_complete_flush(Out& out) {
    if (flush_pending_ == 0 || flush_pending_ != last_proposed_id_) return;
    const auto round_it = flush_rounds_.find(last_proposed_id_);
    if (round_it == flush_rounds_.end()) return;
    FlushRound& round = round_it->second;
    if (!std::all_of(round.members.begin(), round.members.end(),
                     [&](MemberId m) { return round.sym_marks.contains(m); })) {
        return;
    }

    // The agreed cut: the union of everything any survivor can supply,
    // pruned below the minimum watermark (if everyone delivered it, nobody
    // needs it re-supplied). The floors travel in the cut for reference;
    // each receiver applies entries above its *own* watermark.
    std::pair<std::uint64_t, MemberId> sym_floor{~0ULL, ~0U};
    std::uint64_t asym_floor = ~0ULL;
    for (const auto m : round.members) {
        const auto& mark = round.sym_marks[m];
        if (ts_pair_greater(sym_floor.first, sym_floor.second, mark.first, mark.second)) {
            sym_floor = mark;
        }
        asym_floor = std::min(asym_floor, round.asym_marks[m]);
    }
    // Audit the retention caps against the agreed floor: an entry we evicted
    // that sits above some survivor's watermark is needed for the cut, and if
    // no other survivor supplied it the view change loses agreement on it.
    // Recorded (counter + flight note), not fatal: the cut still ships what
    // exists, and tests assert the counter stays zero under the default caps.
    for (const auto& key : sym_evicted_) {
        if (ts_pair_greater(key.first, key.second, sym_floor.first, sym_floor.second) &&
            !round.sym_entries.contains(key)) {
            ++flush_eviction_gaps_;
            if (cfg_.obs != nullptr) {
                cfg_.obs->note(cfg_.obs_member, "flush-eviction-gap sym");
            }
        }
    }
    for (const auto seq : asym_evicted_) {
        if (seq > asym_floor && !round.asym_entries.contains(seq)) {
            ++flush_eviction_gaps_;
            if (cfg_.obs != nullptr) {
                cfg_.obs->note(cfg_.obs_member, "flush-eviction-gap asym");
            }
        }
    }

    FlushState cut;
    cut.sym_watermark_ts = sym_floor.first;
    cut.sym_watermark_sender = sym_floor.second;
    cut.asym_delivered = asym_floor;
    for (const auto& [key, m] : round.sym_entries) {
        if (ts_pair_greater(key.first, key.second, sym_floor.first, sym_floor.second)) {
            cut.entries.push_back(m);
        }
    }
    for (const auto& [seq, m] : round.asym_entries) {
        if (seq > asym_floor) cut.entries.push_back(m);
    }

    GcMessage done;
    done.kind = GcKind::kFlushDone;
    done.sender = cfg_.self;
    done.view_id = last_proposed_id_;
    // kFlushDone carries the membership and performs the install at the
    // receiver: under FS the GC's outputs travel as independent signed
    // streams, so a separate install message could overtake the cut.
    done.view_members = round.members;
    done.payload = cut.encode();
    for (const auto m : round.members) {
        if (m == cfg_.self) continue;
        send_to(m, done, out);
        if (cfg_.obs != nullptr) cfg_.obs->flush_message();
    }
    apply_cut(cut, out);
    install_view(done.view_id, done.view_members, out);
}

void GcService::handle_flush_done(const GcMessage& msg, Out& out) {
    highest_view_seen_ = std::max(highest_view_seen_, msg.view_id);
    if (msg.view_id <= view_.view_id) return;
    if (msg.view_id != flush_pending_) return;  // superseded by a re-propose
    if (std::find(msg.view_members.begin(), msg.view_members.end(), cfg_.self) ==
        msg.view_members.end()) {
        return;
    }
    if (!plausible_coordinator(msg)) return;
    auto cut = FlushState::decode(msg.payload);
    if (!cut.has_value()) return;
    if (cfg_.obs != nullptr) cfg_.obs->flush_message();
    if (joining_) {
        // A joiner has no old-view prefix to reconcile: the JoinGrant's app
        // snapshot and stream positions supersede every cut delivery, so
        // re-delivering them here would only duplicate the history upstream.
        install_view(msg.view_id, msg.view_members, out);
        return;
    }
    apply_cut(cut.value(), out);
    install_view(msg.view_id, msg.view_members, out);
}

void GcService::apply_cut(const FlushState& cut, Out& out) {
    // Re-key the cut deterministically; entry order inside the frame is not
    // trusted (the coordinator sorts, a corrupt frame might not).
    std::map<std::pair<std::uint64_t, MemberId>, GcMessage> sym;
    std::map<std::uint64_t, GcMessage> asym;
    for (const auto& e : cut.entries) {
        if (e.kind == GcKind::kOrder) {
            asym.emplace(e.global_seq, e);
        } else if (e.kind == GcKind::kData && e.service == ServiceType::kSymmetricTotalOrder) {
            sym.emplace(std::make_pair(e.lamport_ts, e.sender), e);
        }
    }
    std::uint64_t flushed = 0;
    for (const auto& [key, m] : sym) {
        if (!ts_pair_greater(key.first, key.second, sym_watermark_.first,
                             sym_watermark_.second)) {
            continue;  // already delivered locally, pre-flush
        }
        Delivery d;
        d.sender = m.sender;
        d.service = ServiceType::kSymmetricTotalOrder;
        d.sender_seq = m.sender_seq;
        d.payload = m.payload;
        sym_watermark_ = key;
        bump_clock(m.lamport_ts);
        deliver(std::move(d), out);
        ++flushed;
    }
    for (const auto& [seq, m] : asym) {
        highest_order_seen_ = std::max(highest_order_seen_, seq);
        asym_next_assign_ = std::max(asym_next_assign_, highest_order_seen_ + 1);
        if (seq < asym_next_deliver_) continue;  // already delivered locally
        Delivery d;
        d.sender = m.origin;
        d.service = ServiceType::kAsymmetricTotalOrder;
        d.sender_seq = m.sender_seq;
        d.payload = m.payload;
        asym_next_deliver_ = seq + 1;
        deliver(std::move(d), out);
        ++flushed;
    }
    // Anything we still buffered was in our own FlushState, hence in the
    // cut: the loops above either delivered it or skipped it as already
    // delivered. Clear, so no pre-cut entry resurfaces in the new view.
    sym_buffer_.clear();
    asym_buffer_.clear();
    if (cfg_.obs != nullptr && flushed != 0) cfg_.obs->flushed_deliveries(flushed);
}

void GcService::prune_sym_retained() {
    if (sym_retained_.empty()) return;
    // Drop retained deliveries once every current member's piggybacked
    // watermark has passed them: nobody can need them re-supplied.
    std::pair<std::uint64_t, MemberId> floor = sym_watermark_;
    for (const auto m : view_.members) {
        if (m == cfg_.self) continue;
        const auto it = peer_watermark_.find(m);
        const std::pair<std::uint64_t, MemberId> mark =
            it == peer_watermark_.end() ? std::pair<std::uint64_t, MemberId>{0, 0}
                                        : it->second;
        if (ts_pair_greater(floor.first, floor.second, mark.first, mark.second)) floor = mark;
    }
    while (!sym_retained_.empty()) {
        const auto& key = sym_retained_.begin()->first;
        if (ts_pair_greater(key.first, key.second, floor.first, floor.second)) break;
        sym_retained_.erase(sym_retained_.begin());
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void GcService::bump_clock(std::uint64_t observed_ts) {
    lamport_ = std::max(lamport_, observed_ts) + 1;
}

void GcService::send_to(MemberId member, const GcMessage& msg, Out& out) {
    const auto it = cfg_.peers.find(member);
    if (it == cfg_.peers.end()) return;
    out.emplace_back(it->second, "gc", msg.encode());
}

void GcService::broadcast(const GcMessage& msg, Out& out) {
    // One logical output with all destinations: the FS wrapper signs a
    // multicast once, not once per receiver.
    fs::Outbound o;
    o.operation = "gc";
    o.body = msg.encode();
    for (const auto m : view_.members) {
        if (m == cfg_.self) continue;
        const auto it = cfg_.peers.find(m);
        if (it != cfg_.peers.end()) o.dests.push_back(it->second);
    }
    if (!o.dests.empty()) out.push_back(std::move(o));
}

void GcService::deliver(Delivery d, Out& out) {
    if (d.kind == Delivery::Kind::kMessage) {
        // The replicated KV app consumes the totally ordered services only:
        // causal/FIFO/unreliable deliveries interleave differently at every
        // member, so folding them in would diverge the digests even on
        // fault-free runs.
        if (d.service == ServiceType::kSymmetricTotalOrder ||
            d.service == ServiceType::kAsymmetricTotalOrder) {
            app_.apply(d.payload);
        }
        if (cfg_.obs != nullptr) {
            cfg_.obs->span(obs::Stage::kOrdered, d.payload, cfg_.obs_member);
        }
    }
    d.delivery_seq = ++delivery_out_seq_;
    out.emplace_back(cfg_.delivery, "deliver", d.encode());
}

}  // namespace failsig::newtop
