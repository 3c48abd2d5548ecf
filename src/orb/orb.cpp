#include "orb/orb.hpp"

#include "common/log.hpp"

namespace failsig::orb {

Orb::Orb(sim::Simulation& sim, net::Transport& net, sim::SimThreadPool& pool, Endpoint endpoint,
         const sim::CostModel& costs)
    : sim_(sim),
      net_(net),
      pool_(pool),
      endpoint_(endpoint),
      costs_(costs),
      alive_(std::make_shared<bool>(true)) {
    net_.bind(endpoint_, [this](const net::Message& msg) { on_network_message(msg); });
}

Orb::~Orb() {
    *alive_ = false;
    net_.unbind(endpoint_);
}

ObjectRef Orb::activate(const std::string& key, Servant* servant) {
    servants_[key] = servant;
    return ObjectRef{endpoint_, key};
}

void Orb::deactivate(const std::string& key) { servants_.erase(key); }

void Orb::invoke_fanout(const std::vector<ObjectRef>& targets, const std::string& operation,
                        Bytes args, ServiceContexts contexts) {
    if (targets.empty()) return;
    Request req;
    req.operation = operation;
    req.args = std::move(args);
    req.request_id = next_request_id_++;
    req.contexts = std::move(contexts);

    // Marshalling is charged once per target on the sender's CPU, but the
    // body the targets are sent is encoded exactly once, here, and shared.
    const Payload body{req.encode_body()};
    const std::size_t body_wire = req.wire_size_sans_key();
    for (const auto& t : targets) {
        const Duration marshal_cost = costs_.marshal(body_wire + t.key.size());
        pool_.submit(marshal_cost, [this, t, body] {
            ++requests_sent_;
            net_.send(endpoint_, t.endpoint, Request::addressed(t.key, body));
        });
    }
}

void Orb::on_network_message(const net::Message& msg) {
    auto decoded = Request::decode_message(msg.payload);
    if (!decoded.has_value()) {
        FAILSIG_LOG(LogLevel::kWarn, ORB)
            << to_string(endpoint_) << " dropping undecodable request: "
            << decoded.error().message;
        return;
    }
    auto req = std::make_shared<Request>(std::move(decoded).value());
    req->sender = msg.src;

    const Duration cost = costs_.dispatch_fixed + costs_.marshal(req->wire_size());
    // Guard against this ORB being destroyed while the task sits in the pool.
    pool_.submit(cost, [this, alive = alive_, req] {
        if (!*alive) return;
        const auto it = servants_.find(req->object_key);
        if (it == servants_.end()) {
            FAILSIG_LOG(LogLevel::kDebug, ORB)
                << to_string(endpoint_) << " no servant for key '" << req->object_key << "'";
            return;
        }
        ++requests_dispatched_;
        it->second->dispatch(*req);
    });
}

OrbDomain::OrbDomain(sim::Simulation& sim, net::Transport& net, sim::CostModel costs,
                     int threads_per_node)
    : sim_of_([&sim](NodeId) -> sim::Simulation& { return sim; }),
      net_(net),
      costs_(costs),
      threads_per_node_(threads_per_node) {}

OrbDomain::OrbDomain(SimProvider sim_of, net::Transport& net, sim::CostModel costs,
                     int threads_per_node)
    : sim_of_(std::move(sim_of)),
      net_(net),
      costs_(costs),
      threads_per_node_(threads_per_node) {}

sim::SimThreadPool& OrbDomain::pool(NodeId node) {
    auto it = pools_.find(node);
    if (it == pools_.end()) {
        it = pools_
                 .emplace(node, std::make_unique<sim::SimThreadPool>(sim_of_(node),
                                                                     threads_per_node_))
                 .first;
    }
    return *it->second;
}

Orb& OrbDomain::create_orb(NodeId node) {
    const Endpoint endpoint{node, PortId{next_port_++}};
    orbs_.push_back(
        std::make_unique<Orb>(sim_of_(node), net_, pool(node), endpoint, costs_));
    return *orbs_.back();
}

}  // namespace failsig::orb
