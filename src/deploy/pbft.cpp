#include "deploy/pbft.hpp"

#include <deque>
#include <map>

namespace failsig::deploy {

using baseline::PbftDelivery;
using baseline::ReplicaId;

/// Hosts one PbftReplica as an ORB servant with serialized execution and
/// per-input CPU cost — the baseline's equivalent of newtop::GcServant.
class PbftDeployment::Servant final : public orb::Servant {
public:
    Servant(orb::Orb& orb, const std::string& key,
            std::unique_ptr<baseline::PbftReplica> replica)
        : orb_(orb), replica_(std::move(replica)) {
        orb_.activate(key, this);
    }

    void dispatch(const orb::Request& request) override {
        if (!request.args.is<Bytes>()) return;
        submit_local(request.operation, request.args.as<Bytes>());
    }

    void submit_local(const std::string& operation, Bytes body) {
        queue_.emplace_back(operation, std::move(body));
        maybe_run();
    }

    [[nodiscard]] baseline::PbftReplica& replica() { return *replica_; }

private:
    void maybe_run() {
        if (busy_ || queue_.empty()) return;
        busy_ = true;
        auto [operation, body] = std::move(queue_.front());
        queue_.pop_front();
        const Duration cost = replica_->processing_cost(operation, body);
        orb_.pool().submit(cost, [this, operation = std::move(operation),
                                  body = std::move(body)] {
            auto outputs = replica_->process(operation, body);
            for (auto& out : outputs) {
                // One fan-out invocation per logical output: the body is
                // marshalled once and shared across all destinations.
                std::vector<orb::ObjectRef> targets;
                targets.reserve(out.dests.size());
                for (const auto& dest : out.dests) {
                    if (!dest.is_fs) targets.push_back(dest.ref);
                }
                orb_.invoke_fanout(targets, out.operation, orb::Any{std::move(out.body)});
            }
            busy_ = false;
            maybe_run();
        });
    }

    orb::Orb& orb_;
    std::unique_ptr<baseline::PbftReplica> replica_;
    std::deque<std::pair<std::string, Bytes>> queue_;
    bool busy_{false};
};

/// Collects "deliver" upcalls for one replica.
class PbftDeployment::DeliverySink final : public orb::Servant {
public:
    DeliverySink(orb::Orb& orb, const std::string& key, PbftDeployment& owner, ReplicaId replica)
        : owner_(owner), replica_(replica) {
        ref_ = orb.activate(key, this);
    }

    void dispatch(const orb::Request& request) override {
        if (!request.args.is<Bytes>()) return;
        if (request.operation == "recovered") {
            // The replica restarts its delivery stream at watermark+1 after a
            // state transfer; whatever was held back belongs to the pre-crash
            // stream and is dead.
            const Bytes& body = request.args.as<Bytes>();
            if (body.size() != 8) return;
            ByteReader r(body);
            next_seq_ = r.u64() + 1;
            holdback_.clear();
            return;
        }
        if (request.operation != "deliver") return;
        auto d = PbftDelivery::decode(request.args.as<Bytes>());
        if (!d.has_value()) return;
        // Re-sequence on the replica's commit order: the replica emits
        // deliveries in seq order, but each travels as its own marshal task
        // through the node's thread pool, and two tasks racing to the local
        // link can hit the wire swapped (the schedule-space explorer found
        // exactly this under a permuted tie-break). The application contract
        // is commit order, so hold back until the stream is gapless. On an
        // in-order stream this is a pure pass-through.
        PbftDelivery delivery = std::move(d).value();
        const std::uint64_t seq = delivery.seq;
        holdback_.emplace(seq, std::move(delivery));
        while (true) {
            const auto it = holdback_.find(next_seq_);
            if (it == holdback_.end()) break;
            unbatch_and_upcall(it->second);
            holdback_.erase(it);
            ++next_seq_;
        }
    }

    [[nodiscard]] const orb::ObjectRef& ref() const { return ref_; }

private:
    void unbatch_and_upcall(const PbftDelivery& d) {
        if (Batch::is_batch(d.request.payload)) {
            // One committed slot carrying b requests: unbatch into b upcalls
            // in batch order, so observers see the individual submissions.
            auto requests = Batch::decode(d.request.payload);
            if (requests.has_value()) {
                for (const auto& payload : requests.value()) upcall(payload);
                return;
            }
        }
        upcall(d.request.payload);
    }

    void upcall(const Bytes& payload) {
        if (owner_.obs_ != nullptr) {
            owner_.obs_->span(obs::Stage::kDelivered, payload, static_cast<int>(replica_));
        }
        if (owner_.observers_.delivered) {
            owner_.observers_.delivered(static_cast<int>(replica_), payload);
        }
    }

    PbftDeployment& owner_;
    ReplicaId replica_;
    orb::ObjectRef ref_;
    std::uint64_t next_seq_{1};
    std::map<std::uint64_t, PbftDelivery> holdback_;
};

PbftDeployment::PbftDeployment(const DeploymentSpec& spec)
    : own_net_(spec.env.external() ? nullptr
                                   : std::make_unique<net::SimNetwork>(sim_, Rng(spec.seed),
                                                                       net::AsyncLinkParams{})),
      net_(net::transport_or(spec.env, own_net_.get())),
      faults_(net::faults_or(spec.env, own_net_.get())),
      domain_(net::sim_of_or(spec.env, sim_), net_, sim::CostModel{}, spec.threads_per_node),
      obs_(spec.obs) {
    const auto n = static_cast<std::uint32_t>(spec.group_size);
    ensure(n >= 4, "PbftDeployment: need at least 4 replicas");

    next_origin_seq_.assign(n, 1);

    std::vector<orb::Orb*> orbs;
    std::vector<orb::ObjectRef> refs(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        orbs.push_back(&domain_.create_orb(node_of(i)));
        refs[i] = orb::ObjectRef{orbs.back()->endpoint(), "pbft"};
    }

    for (std::uint32_t i = 0; i < n; ++i) {
        sinks_.push_back(std::make_unique<DeliverySink>(*orbs[i], "app", *this, i));

        baseline::PbftConfig cfg;
        cfg.self = i;
        cfg.n = n;
        for (std::uint32_t j = 0; j < n; ++j) {
            if (j != i) cfg.peers[j] = fs::Destination::plain(refs[j]);
        }
        cfg.delivery = fs::Destination::plain(sinks_.back()->ref());
        cfg.protocol_op_cost = domain_.costs().gc_protocol_op;
        cfg.obs = spec.obs;
        cfg.obs_member = static_cast<int>(i);
        cfg.checkpoint_interval = spec.checkpoint_interval;

        replicas_.push_back(std::make_unique<Servant>(
            *orbs[i], "pbft", std::make_unique<baseline::PbftReplica>(cfg)));
        batchers_.push_back(std::make_unique<Batcher>(
            spec.batch,
            [this, i](Bytes unit, std::size_t) {
                if (obs_ != nullptr) trace_flush(i, unit);
                submit_unit(i, std::move(unit));
            },
            [replica_sim = &orbs[i]->simulation()](Duration delay, std::function<void()> fn) {
                replica_sim->schedule_after(delay, std::move(fn));
            }));
    }

    if (spec.obs != nullptr) spec.obs->bind(&sim_);
}

PbftDeployment::~PbftDeployment() = default;

void PbftDeployment::submit(int member, Bytes payload) {
    if (obs_ != nullptr) obs_->span(obs::Stage::kSubmit, payload, member);
    batchers_.at(static_cast<std::size_t>(member))->submit(std::move(payload));
}

void PbftDeployment::trace_flush(ReplicaId at, const Bytes& unit) {
    const int member = static_cast<int>(at);
    if (Batch::is_batch(unit)) {
        if (auto requests = Batch::decode(unit); requests.has_value()) {
            for (const auto& request : requests.value()) {
                obs_->span_link(unit, request, member);
            }
            return;
        }
    }
    obs_->span_link(unit, unit, member);  // passthrough: unit == request
}

void PbftDeployment::submit_unit(ReplicaId at, Bytes unit) {
    if (obs_ != nullptr) obs_->span(obs::Stage::kEncoded, unit, static_cast<int>(at));
    baseline::ClientRequest req;
    req.origin = at;
    req.origin_seq = next_origin_seq_[at]++;
    req.payload = std::move(unit);
    replicas_[at]->submit_local("request", req.encode());
}

BatchStats PbftDeployment::batch_stats() const {
    BatchStats stats;
    for (const auto& b : batchers_) stats += b->stats();
    return stats;
}

void PbftDeployment::fire_timeouts_member(int member) {
    auto& servant = *replicas_.at(static_cast<std::size_t>(member));
    ByteWriter w;
    w.u64(servant.replica().view());
    servant.submit_local("timeout", w.take());
}

std::vector<RecoveryStep> PbftDeployment::recover_steps(int member) {
    // The replica restarts with an empty log and pulls a stable checkpoint
    // plus the committed suffix from its peers; everything runs through the
    // servant's ordinary input path, so no link surgery is needed beyond the
    // default unblock.
    const auto r = static_cast<ReplicaId>(member);
    return {{node_of(r), [this, r] { replicas_.at(r)->submit_local("recover", Bytes{}); }}};
}

std::optional<AppStateInfo> PbftDeployment::app_state_of(int member) {
    const auto& app = replica(static_cast<ReplicaId>(member)).app();
    return AppStateInfo{app.applied(), app.digest(), app.state_string()};
}

RecoveryStats PbftDeployment::recovery_stats() const {
    RecoveryStats stats;
    for (ReplicaId r = 0; r < replicas_.size(); ++r) {
        const auto& rep = replica(r);
        stats.checkpoints_taken += rep.checkpoints_taken();
        stats.log_slots_truncated += rep.log_slots_truncated();
        stats.log_slots_retained = std::max(stats.log_slots_retained, rep.log_slots_retained());
        stats.state_transfers_served += rep.state_transfers_served();
        stats.rejoins_completed += rep.recoveries_completed();
    }
    return stats;
}

baseline::PbftReplica& PbftDeployment::replica(ReplicaId r) { return replicas_.at(r)->replica(); }

const baseline::PbftReplica& PbftDeployment::replica(ReplicaId r) const {
    return replicas_.at(r)->replica();
}

}  // namespace failsig::deploy
