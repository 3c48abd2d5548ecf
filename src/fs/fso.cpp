#include "fs/fso.hpp"

#include "common/log.hpp"

namespace failsig::fs {

namespace {
/// CPU charge for light Order/Compare bookkeeping on the wrapper thread.
constexpr Duration kBookkeepingCost = 20 * kMicrosecond;
}  // namespace

Fso::Fso(FsRuntime& rt, std::string name, FsoRole role, orb::Orb& orb, Endpoint pair_endpoint,
         std::unique_ptr<DeterministicService> service, FsConfig config)
    : rt_(rt),
      name_(std::move(name)),
      role_(role),
      orb_(orb),
      sim_(orb.simulation()),
      pair_ep_(pair_endpoint),
      service_(std::move(service)),
      cfg_(config),
      costs_(rt.domain.costs()),
      principal_(name_ + (role == FsoRole::kLeader ? "/L" : "/F")),
      order_pool_(std::make_unique<sim::SimThreadPool>(sim_, 1)),
      compare_pool_(std::make_unique<sim::SimThreadPool>(sim_, 1)),
      fault_rng_(0xfa017 + std::hash<std::string>{}(principal_)) {
    rt_.keys.register_principal(principal_);
    rt_.net.bind(pair_ep_, [this](const net::Message& msg) {
        // Pair-link traffic: Order records (-> Order thread) and
        // single-signed outputs (-> Compare thread).
        auto env = crypto::SignedEnvelope::decode(msg.payload);
        if (!env.has_value()) return;
        auto shared = std::make_shared<crypto::SignedEnvelope>(std::move(env).value());
        const auto kind = peek_kind(shared->payload());
        if (!kind.has_value()) return;
        // Both kinds are handled on the fast wrapper thread: ordering must
        // never wait behind signature computation, and matching a received
        // single-signed output is a byte comparison plus one verification —
        // if it queued behind pending sign operations, a backlog of signs
        // would fire the compare timeout spuriously.
        if (kind.value() == WireKind::kOrder) {
            // Order records jump the queue: the follower's Order' thread
            // checks the leader's stream before new external input, so a
            // burst of receiveNew verifications cannot delay the
            // cancellation of IRMP t2 timers past their deadline.
            const Duration cost = kBookkeepingCost + costs_.hash(shared->payload().size());
            order_pool_->submit_priority(cost, [this, shared] { handle_order(*shared); });
        } else if (kind.value() == WireKind::kOutput) {
            // Single-signed outputs are matched on the Compare thread, ahead
            // of pending signature computations: the τ term of the §2.2
            // timeout already accounts for the *peer's* signing backlog, so
            // the match must not queue behind ours a second time.
            const Duration verify_cost = costs_.verify(shared->payload().size());
            if (rt_.obs != nullptr) rt_.obs->crypto_verify(verify_cost);
            const Duration cost = kBookkeepingCost + verify_cost;
            compare_pool_->submit_priority(cost, [this, shared] { handle_single(*shared); });
        }
    });
}

Fso::~Fso() { rt_.net.unbind(pair_ep_); }

void Fso::set_peer(Endpoint peer_pair_endpoint, const std::string& peer_principal,
                   crypto::SignedEnvelope prearmed_fail_signal) {
    peer_pair_ep_ = peer_pair_endpoint;
    peer_principal_ = peer_principal;
    prearmed_fail_ = std::move(prearmed_fail_signal);
    if (cfg_.order_link_mac) {
        rt_.keys.register_link(principal_, peer_principal_);
        link_principal_ = crypto::KeyService::link_principal(principal_, peer_principal_);
    }
    peer_set_ = true;
}

void Fso::set_fault_plan(const FaultPlan& plan) {
    fault_ = plan;
    fault_configured_ = true;
    spontaneous_episode_reported_ = false;  // a fresh plan starts a fresh episode
    if (fault_.spontaneous_fail_signals) schedule_spontaneous_fail_signal();
}

bool Fso::fault_active() const {
    return fault_configured_ && sim_.now() >= fault_.active_from;
}

Duration Fso::t2_effective() const {
    const Duration base = cfg_.t2 != 0 ? cfg_.t2 : 2 * cfg_.delta;
    return base + cfg_.compare_slack;
}

void Fso::reset_for_recovery(std::uint64_t seq_base) {
    for (auto& [uid, entry] : irmp_) {
        if (entry.timer != 0) sim_.cancel(entry.timer);
    }
    for (auto& [id, entry] : icmp_) {
        if (entry.timer != 0) sim_.cancel(entry.timer);
    }
    irmp_.clear();
    icmp_.clear();
    ecmp_.clear();
    dmq_.clear();
    ordered_uids_.clear();
    signalling_ = false;
    exec_busy_ = false;
    next_seq_ = seq_base;
    next_exec_seq_ = seq_base;
}

// ---------------------------------------------------------------------------
// Input path (receiveNew / Order process)
// ---------------------------------------------------------------------------

void Fso::dispatch(const orb::Request& request) {
    if (request.operation != "receiveNew" || !request.args.is<Bytes>()) return;
    auto env = crypto::SignedEnvelope::decode(request.args.as<Bytes>());
    if (!env.has_value()) return;
    auto shared = std::make_shared<crypto::SignedEnvelope>(std::move(env).value());

    // Authenticating inputs is one of the paper's three FS latency sources;
    // charge it on the Order thread, then run the ordering logic.
    Duration cost = kBookkeepingCost;
    for (std::size_t i = 0; i < shared->signatures().size(); ++i) {
        const Duration verify_cost = costs_.verify(shared->payload().size());
        if (rt_.obs != nullptr) rt_.obs->crypto_verify(verify_cost);
        cost += verify_cost;
    }
    order_pool_->submit(cost, [this, shared] { handle_receive_new(*shared); });
}

void Fso::handle_receive_new(const crypto::SignedEnvelope& env) {
    const auto kind = peek_kind(env.payload());
    if (!kind.has_value()) return;

    FsInput input;
    switch (kind.value()) {
        case WireKind::kOutput: {
            auto out = FsOutput::decode(env.payload());
            if (!out.has_value()) return;
            const FsOutput& record = out.value();
            const FsProcessInfo* source = rt_.directory.lookup(record.source_fs);
            if (source == nullptr) return;
            if (!env.is_valid_double_signed(rt_.keys, source->leader_principal,
                                            source->follower_principal)) {
                return;  // forged or single-signed: not a valid FS output (A5)
            }
            input.uid = "fs:" + record.source_fs + ":" + std::to_string(record.input_seq) + ":" +
                        std::to_string(record.out_index);
            input.operation = record.operation;
            input.body = record.body;
            input.origin_fs = record.source_fs;
            break;
        }
        case WireKind::kFailSignal: {
            auto fsig = FsFailSignal::decode(env.payload());
            if (!fsig.has_value()) return;
            const FsProcessInfo* source = rt_.directory.lookup(fsig.value().source_fs);
            if (source == nullptr) return;
            if (!env.is_valid_double_signed(rt_.keys, source->leader_principal,
                                            source->follower_principal)) {
                return;
            }
            // A valid fail-signal is converted into an ordered input so both
            // replicas observe it at the same point in the input sequence.
            // Flight-note the conversion: for a wrapped GC this is the
            // instant the suspicion — and with it the view-change flush —
            // is triggered, so the recorder can time flush rounds against
            // their cause.
            if (rt_.obs != nullptr) {
                rt_.obs->note(-1, principal_ + " accepts fail-signal from " +
                                      fsig.value().source_fs);
            }
            input.uid = "failsig:" + fsig.value().source_fs;
            input.operation = kFailSignalOp;
            input.body = bytes_of(fsig.value().source_fs);
            input.origin_fs = fsig.value().source_fs;
            break;
        }
        case WireKind::kInput: {
            auto in = FsInput::decode(env.payload());
            if (!in.has_value()) return;
            input = std::move(in).value();
            break;
        }
        default: return;
    }

    if (signalling_) {
        // Reply to the sender with our fail-signal (§2.1) — except when the
        // incoming message IS a fail-signal: answering those would make two
        // signalling processes bounce fail-signals forever.
        if (input.operation != kFailSignalOp) reply_fail_signal_to_origin(input);
        return;
    }

    if (role_ == FsoRole::kLeader) {
        order_input(input);
    } else {
        follower_receive_new(input);
    }
}

void Fso::order_input(const FsInput& input) {
    if (signalling_) {
        reply_fail_signal_to_origin(input);
        return;
    }
    if (ordered_uids_.contains(input.uid)) return;
    ordered_uids_.insert(input.uid);
    const std::uint64_t seq = next_seq_++;
    ++inputs_ordered_;

    enqueue_ordered(seq, input);

    // Forward the order record to the follower over the synchronous link.
    FsOrder record{seq, input};
    crypto::SignedEnvelope env(record.encode());
    env.add_signature(rt_.keys.signer(order_signing_principal()));
    pair_send(env);

    // Byzantine leader: announce one order, execute another (swap the two
    // most recent still-pending inputs locally).
    if (fault_active() && fault_.misorder_inputs && seq >= 2 &&
        fault_rng_.chance(fault_.probability)) {
        const auto a = dmq_.find(seq);
        const auto b = dmq_.find(seq - 1);
        if (a != dmq_.end() && b != dmq_.end()) std::swap(a->second.input, b->second.input);
    }
}

void Fso::enqueue_ordered(std::uint64_t seq, const FsInput& input) {
    dmq_[seq] = PendingInput{input, sim_.now()};
    maybe_execute();
}

void Fso::follower_receive_new(const FsInput& input) {
    if (ordered_uids_.contains(input.uid)) return;  // already ordered by leader
    if (irmp_.contains(input.uid)) return;

    const auto dispatch_to_leader = [this, input] {
        if (signalling_ || ordered_uids_.contains(input.uid)) return;
        FsOrder record{0, input};  // seq 0 = "please order this"
        crypto::SignedEnvelope env(record.encode());
        env.add_signature(rt_.keys.signer(order_signing_principal()));
        pair_send(env);
    };

    // Appendix A: t1 = 0 in the implementation — dispatch immediately.
    if (cfg_.t1 == 0) {
        dispatch_to_leader();
    } else {
        sim_.schedule_after(cfg_.t1, dispatch_to_leader);
    }

    IrmpEntry entry;
    entry.input = input;
    entry.timer = sim_.schedule_after(
        t2_effective(), [this, uid = input.uid] { on_irmp_timeout(uid); });
    irmp_.emplace(input.uid, std::move(entry));
}

void Fso::handle_order(const crypto::SignedEnvelope& env) {
    if (signalling_ || !peer_set_) return;
    if (env.signatures().size() != 1 ||
        env.signatures()[0].principal != order_expected_principal() ||
        !env.verify_chain(rt_.keys)) {
        return;  // not authentically from the counterpart
    }
    auto order = FsOrder::decode(env.payload());
    if (!order.has_value()) return;
    const FsOrder& record = order.value();

    if (role_ == FsoRole::kFollower) {
        if (record.seq == 0) return;  // leaders never send unordered records
        if (ordered_uids_.contains(record.input.uid)) return;
        ordered_uids_.insert(record.input.uid);
        ++inputs_ordered_;
        const auto irmp_it = irmp_.find(record.input.uid);
        if (irmp_it != irmp_.end()) {
            sim_.cancel(irmp_it->second.timer);
            irmp_.erase(irmp_it);
        }
        enqueue_ordered(record.seq, record.input);
    } else {
        // Follower dispatched an input the leader may not have seen yet.
        order_input(record.input);
    }
}

void Fso::on_irmp_timeout(const std::string& uid) {
    const auto it = irmp_.find(uid);
    if (it == irmp_.end()) return;
    const FsInput input = it->second.input;
    irmp_.erase(it);
    // The leader failed to order an input within t2: it has failed (Appendix
    // A) — start fail-signalling and tell the input's origin.
    start_signalling("leader did not order input " + uid + " within t2");
    reply_fail_signal_to_origin(input);
}

// ---------------------------------------------------------------------------
// Execution of ordered inputs
// ---------------------------------------------------------------------------

void Fso::maybe_execute() {
    if (exec_busy_) return;
    const auto it = dmq_.find(next_exec_seq_);
    if (it == dmq_.end()) return;
    const std::uint64_t seq = it->first;
    const PendingInput pending = std::move(it->second);
    dmq_.erase(it);
    exec_busy_ = true;

    Duration cost = service_->processing_cost(pending.input.operation, pending.input.body);
    if (fault_active() && fault_.extra_processing_delay > 0) {
        cost += fault_.extra_processing_delay;
    }
    // The wrapped service computes on the node's shared pool, contending
    // with every other object hosted there.
    node_pool().submit(cost, [this, seq, pending] { on_executed(seq, pending); });
}

void Fso::on_executed(std::uint64_t seq, const PendingInput& pending) {
    exec_busy_ = false;
    next_exec_seq_ = seq + 1;

    std::vector<Outbound> outputs =
        service_->process(pending.input.operation, pending.input.body);
    const Duration pi = sim_.now() - pending.submitted_at;  // π of §2.2

    for (std::uint32_t idx = 0; idx < outputs.size(); ++idx) {
        Outbound& out = outputs[idx];
        FsOutput record;
        record.source_fs = name_;
        record.input_seq = seq;
        record.out_index = idx;
        record.dests = std::move(out.dests);
        record.operation = out.operation;
        record.body = std::move(out.body);

        if (fault_active() && fault_.drop_outputs && fault_rng_.chance(fault_.probability)) {
            continue;  // faulty node silently produces nothing
        }
        if (fault_active() && fault_.corrupt_outputs && fault_rng_.chance(fault_.probability)) {
            if (record.body.empty()) record.body.push_back(0);
            record.body[fault_rng_.uniform(record.body.size())] ^= 0x01;
        }

        if (signalling_) {
            // After failure the Compare replaces every locally produced
            // output with the fail-signal (§2.1).
            send_fail_signal_for_output(record);
            continue;
        }
        emit_output(std::move(record), pi);
    }
    maybe_execute();
}

// ---------------------------------------------------------------------------
// Output path (Compare process)
// ---------------------------------------------------------------------------

void Fso::emit_output(FsOutput record, Duration pi) {
    const OutputId id = record.id();
    Bytes encoded = record.encode();

    IcmpEntry entry;
    entry.out = std::move(record);
    entry.encoded = encoded;
    icmp_.emplace(id, std::move(entry));

    // Sign once and forward to the counterpart Compare. §2.2 measures τ as
    // "the time taken to sign and forward the output to its remote
    // counterpart" — so τ is the *observed* elapsed time including any
    // Compare-thread backlog, and the wait timer is armed only once the
    // single-signed copy has actually left.
    const TimePoint produced_at = sim_.now();
    if (rt_.obs != nullptr) rt_.obs->crypto_sign(costs_.sign(encoded.size()));
    compare_pool_->submit(
        costs_.sign(encoded.size()), [this, id, pi, produced_at, encoded = std::move(encoded)] {
            if (signalling_ || !peer_set_) return;
            crypto::SignedEnvelope env(encoded);
            env.add_signature(rt_.keys.signer(principal_));
            pair_send(env);
            const Duration tau = sim_.now() - produced_at;
            arm_icmp_timer(id, pi, tau);
        });

    try_match(id);
}

void Fso::arm_icmp_timer(const OutputId& id, Duration pi, Duration tau) {
    const auto it = icmp_.find(id);
    if (it == icmp_.end() || it->second.matched) return;
    // §2.2: Compare (leader) waits 2δ+κπ+στ; Compare' (follower) δ+κπ+στ.
    const Duration base = (role_ == FsoRole::kLeader ? 2 : 1) * cfg_.delta;
    const Duration timeout = base + static_cast<Duration>(cfg_.kappa * static_cast<double>(pi)) +
                             static_cast<Duration>(cfg_.sigma * static_cast<double>(tau)) +
                             cfg_.compare_slack;
    it->second.timer = sim_.schedule_after(timeout, [this, id] { on_icmp_timeout(id); });
}

void Fso::handle_single(const crypto::SignedEnvelope& env) {
    if (signalling_ || !peer_set_) return;
    if (env.signatures().size() != 1 || env.signatures()[0].principal != peer_principal_ ||
        !env.verify_chain(rt_.keys)) {
        return;  // unauthentic single-signed output: let the timeout catch it
    }
    auto out = FsOutput::decode(env.payload());
    if (!out.has_value()) return;
    const OutputId id = out.value().id();
    ecmp_.emplace(id, env);
    try_match(id);
}

void Fso::try_match(const OutputId& id) {
    const auto icmp_it = icmp_.find(id);
    const auto ecmp_it = ecmp_.find(id);
    if (icmp_it == icmp_.end() || ecmp_it == ecmp_.end()) return;
    if (icmp_it->second.matched) return;

    if (icmp_it->second.encoded != ecmp_it->second.payload()) {
        // The two replicas produced different results for the same input:
        // one of the nodes is faulty.
        start_signalling("output comparison mismatch");
        return;
    }

    icmp_it->second.matched = true;
    sim_.cancel(icmp_it->second.timer);
    crypto::SignedEnvelope env = ecmp_it->second;
    ecmp_.erase(ecmp_it);

    // Countersign the counterpart-signed copy — the transmitted output then
    // bears both signatures, first the counterpart's, then ours.
    if (rt_.obs != nullptr) rt_.obs->crypto_sign(costs_.sign(env.payload().size()));
    compare_pool_->submit(costs_.sign(env.payload().size()), [this, id, env]() mutable {
        const auto it = icmp_.find(id);
        if (it == icmp_.end()) return;
        const FsOutput record = it->second.out;
        icmp_.erase(it);
        if (signalling_) {
            send_fail_signal_for_output(record);
            return;
        }
        env.add_signature(rt_.keys.signer(principal_));
        transmit(record, env.encode());
    });
}

void Fso::on_icmp_timeout(const OutputId& id) {
    const auto it = icmp_.find(id);
    if (it == icmp_.end() || it->second.matched) return;
    start_signalling("compare timeout for output " + std::to_string(id.first) + ":" +
                     std::to_string(id.second));
}

// ---------------------------------------------------------------------------
// Fail-signalling
// ---------------------------------------------------------------------------

const Bytes& Fso::fail_signal_wire() {
    if (!cached_fail_wire_.has_value()) {
        crypto::SignedEnvelope env = prearmed_fail_;
        env.add_signature(rt_.keys.signer(principal_));
        cached_fail_wire_ = env.encode();
    }
    return *cached_fail_wire_;
}

void Fso::start_signalling(const std::string& reason) {
    if (signalling_) return;
    signalling_ = true;
    FAILSIG_LOG(LogLevel::kInfo, FSO) << principal_ << " starts fail-signalling: " << reason;
    if (fail_signal_observer_) fail_signal_observer_(name_, reason);

    // Every entity expecting a response gets the fail-signal.
    for (auto& [id, entry] : icmp_) {
        sim_.cancel(entry.timer);
        send_fail_signal_for_output(entry.out);
    }
    icmp_.clear();
    ecmp_.clear();
    for (auto& [uid, entry] : irmp_) {
        sim_.cancel(entry.timer);
        reply_fail_signal_to_origin(entry.input);
    }
    irmp_.clear();
}

void Fso::send_fail_signal_for_output(const FsOutput& out) {
    for (const auto& dest : out.dests) {
        if (dest.is_fs) {
            send_fail_signal_to_fs(dest.fs_name);
        } else {
            send_fail_signal_to_ref(dest.ref);
        }
    }
}

void Fso::reply_fail_signal_to_origin(const FsInput& input) {
    if (!input.origin_fs.empty()) {
        send_fail_signal_to_fs(input.origin_fs);
    } else if (!input.origin_ref.key.empty()) {
        send_fail_signal_to_ref(input.origin_ref);
    }
}

void Fso::send_fail_signal_to_fs(const std::string& fs_name) {
    const FsProcessInfo* info = rt_.directory.lookup(fs_name);
    if (info == nullptr || fs_name == name_) return;
    ++fail_signals_sent_;
    fanout_raw({info->leader, info->follower}, "receiveNew", fail_signal_wire());
}

void Fso::send_fail_signal_to_ref(const orb::ObjectRef& ref) {
    if (ref.key.empty()) return;
    ++fail_signals_sent_;
    raw_request(ref, kFailSignalOp, fail_signal_wire());
}

void Fso::schedule_spontaneous_fail_signal() {
    const Duration interval =
        fault_.spontaneous_interval > 0 ? fault_.spontaneous_interval : 50 * kMillisecond;
    const TimePoint first = std::max(fault_.active_from, sim_.now() + interval);
    sim_.schedule_at(first, [this] {
        if (fault_configured_ && fault_.spontaneous_fail_signals && fault_active()) {
            // fs2: emit this process's fail-signal at an arbitrary instant to
            // arbitrary destinations, while the process may keep working.
            // The observer fires once per signalling episode, not per tick.
            if (!spontaneous_episode_reported_) {
                spontaneous_episode_reported_ = true;
                if (fail_signal_observer_) {
                    fail_signal_observer_(name_, "spontaneous fail-signal emission (fs2)");
                }
            }
            for (const auto& other : rt_.directory.names()) {
                if (other != name_) send_fail_signal_to_fs(other);
            }
        }
        schedule_spontaneous_fail_signal();
    });
}

// ---------------------------------------------------------------------------
// Transport helpers
// ---------------------------------------------------------------------------

void Fso::pair_send(const crypto::SignedEnvelope& env) {
    if (!peer_set_) return;
    rt_.net.send(pair_ep_, peer_pair_ep_, env.encode());
}

void Fso::raw_request(const orb::ObjectRef& target, const std::string& operation, Bytes wire) {
    fanout_raw({target}, operation, std::move(wire));
}

void Fso::fanout_raw(const std::vector<orb::ObjectRef>& targets, const std::string& operation,
                     Bytes wire) {
    if (targets.empty()) return;
    orb::Request req;
    req.object_key = targets.front().key;
    req.operation = operation;
    req.args = orb::Any{std::move(wire)};
    req.request_id = next_raw_request_id_++;
    req.sender = pair_ep_;
    const Payload body{req.encode_body()};
    for (const auto& t : targets) {
        rt_.net.send(pair_ep_, t.endpoint,
                     Payload::prefixed(orb::Request::encode_key(t.key), body));
    }
}

void Fso::transmit(const FsOutput& record, Bytes wire) {
    // One signed message, fanned out to every destination (and to both
    // replicas of FS destinations). The request body is encoded once per
    // distinct operation and shared across targets, but the send order over
    // destinations stays exactly as declared — the network's per-link FIFO
    // and per-message jitter draws depend on it.
    struct SharedBody {
        Payload body;
        bool ready{false};
    };
    SharedBody fs_body, plain_body;
    const orb::Any args{std::move(wire)};
    const auto send_shared = [&](const orb::ObjectRef& ref, SharedBody& slot,
                                 const std::string& operation) {
        if (!slot.ready) {
            orb::Request req;
            req.object_key = ref.key;
            req.operation = operation;
            req.args = args;
            req.request_id = next_raw_request_id_++;
            req.sender = pair_ep_;
            slot.body = Payload{req.encode_body()};
            slot.ready = true;
        }
        rt_.net.send(pair_ep_, ref.endpoint,
                     Payload::prefixed(orb::Request::encode_key(ref.key), slot.body));
    };
    for (const auto& dest : record.dests) {
        if (dest.is_fs) {
            const FsProcessInfo* info = rt_.directory.lookup(dest.fs_name);
            if (info == nullptr) continue;
            send_shared(info->leader, fs_body, "receiveNew");
            send_shared(info->follower, fs_body, "receiveNew");
        } else {
            send_shared(dest.ref, plain_body, record.operation);
        }
    }
}

}  // namespace failsig::fs
