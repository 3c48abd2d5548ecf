// ServiceServant: hosts a DeterministicService as a plain ORB object — the
// unwrapped counterpart of a fail-signal pair. The crash-tolerant NewTOP GC
// and the PBFT baseline's replica both run in it. Inputs are serialized (the
// paper's GC "is implemented as a single-threaded, deterministic
// application"), each input's processing cost is charged to the node's
// shared thread pool before the state machine runs, and outputs are routed
// through the ORB.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fs/service.hpp"
#include "orb/orb.hpp"

namespace failsig::fs {

template <class Service>
class ServiceServant final : public orb::Servant {
public:
    ServiceServant(orb::Orb& orb, const std::string& key, std::unique_ptr<Service> service)
        : orb_(orb), service_(std::move(service)) {
        orb_.activate(key, this);
    }

    ServiceServant(const ServiceServant&) = delete;
    ServiceServant& operator=(const ServiceServant&) = delete;

    void dispatch(const orb::Request& request) override {
        if (!request.args.is<Bytes>()) return;
        submit_local(request.operation, request.args.as<Bytes>());
    }

    /// Feeds an input from a collocated module (Invocation layer, suspector,
    /// deployment driver) without a network round trip.
    void submit_local(const std::string& operation, Bytes body) {
        queue_.emplace_back(operation, std::move(body));
        maybe_run();
    }

    [[nodiscard]] Service& service() { return *service_; }
    [[nodiscard]] const Service& service() const { return *service_; }

private:
    void maybe_run() {
        if (busy_ || queue_.empty()) return;
        busy_ = true;
        auto [operation, body] = std::move(queue_.front());
        queue_.pop_front();
        const Duration cost = service_->processing_cost(operation, body);
        orb_.pool().submit(cost, [this, operation = std::move(operation),
                                  body = std::move(body)] {
            auto outputs = service_->process(operation, body);
            for (auto& out : outputs) {
                // Every destination of an unwrapped service is a concrete
                // object ref. One fan-out invocation per logical output: the
                // body is marshalled once and shared across all destinations.
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
    std::unique_ptr<Service> service_;
    std::deque<std::pair<std::string, Bytes>> queue_;
    bool busy_{false};
};

}  // namespace failsig::fs
