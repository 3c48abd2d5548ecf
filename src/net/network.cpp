#include "net/network.hpp"

#include <algorithm>

namespace failsig::net {

SimNetwork::SimNetwork(sim::Simulation& sim, Rng rng, AsyncLinkParams params)
    : sim_(sim), rng_(rng), params_(params) {}

void SimNetwork::bind(Endpoint endpoint, MessageHandler handler) {
    handlers_[endpoint] = std::move(handler);
}

void SimNetwork::unbind(Endpoint endpoint) { handlers_.erase(endpoint); }

void SimNetwork::reset_stats() {
    stats_ = {};
    count_token_ = Payload::fresh_count_token();
}

Duration SimNetwork::delay_for(NodeId a, NodeId b, const Route& route, std::size_t size) {
    if (a == b) {
        // Loopback: small constant.
        return 20 * kMicrosecond;
    }
    if (route.lan_bound) {
        // Synchronous link: delay uniform in (0, δ], never above the bound.
        const Duration delta = *route.lan_bound;
        const Duration lo = std::max<Duration>(1, delta / 4);
        return rng_.uniform_range(lo, delta);
    }
    const auto jitter = static_cast<Duration>(rng_.exponential(params_.jitter_mean_us));
    const auto serialization =
        static_cast<Duration>(params_.per_byte_us * static_cast<double>(size));
    return params_.base + jitter + serialization + route.surge;
}

void SimNetwork::send(Endpoint src, Endpoint dst, Payload payload) {
    ++stats_.messages_sent;
    stats_.bytes_sent += payload.size();
    // Copy accounting: the per-target header is always materialized; the
    // body buffer counts only the first time it is seen (the fan-out loop
    // of a multicast sends the same shared buffer consecutively).
    stats_.payload_bytes_copied += payload.prefix().size();
    if (payload.count_body(count_token_)) {
        ++stats_.payload_bodies_encoded;
        stats_.payload_bytes_copied += payload.body().size();
    }

    Message msg{src, dst, std::move(payload)};
    const std::optional<Route> route = faults().admit(msg, rng_, sim_.now());
    if (!route) {
        ++stats_.messages_dropped;
        return;
    }

    const Duration delay = delay_for(src.node, dst.node, *route, msg.payload.size());
    TimePoint deliver_at = sim_.now() + delay;

    // FIFO per directed node pair: never deliver earlier than a previously
    // sent message on the same link.
    const std::uint64_t link_key =
        (static_cast<std::uint64_t>(src.node.value) << 32) | dst.node.value;
    auto [it, inserted] = last_delivery_.try_emplace(link_key, deliver_at);
    if (!inserted) {
        deliver_at = std::max(deliver_at, it->second + 1);
        it->second = deliver_at;
    }

    sim_.schedule_at(deliver_at, [this, msg = std::move(msg)]() {
        const auto handler_it = handlers_.find(msg.dst);
        if (handler_it == handlers_.end()) {
            ++stats_.messages_dropped;
            return;
        }
        ++stats_.messages_delivered;
        handler_it->second(msg);
    });
}

}  // namespace failsig::net
