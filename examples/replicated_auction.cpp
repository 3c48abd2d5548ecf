// Replicated e-auction over FS-NewTOP total order.
//
// The paper's §1 motivates the middleware with "Internet-based dependable
// applications (e.g., e-auctions, B2B applications)". This example runs an
// auction service replicated across all group members: every bid is
// multicast with the symmetric total-order service, so all replicas process
// bids in the same order and agree on the winner — even though the
// middleware underneath is Byzantine-fault-prone (each GC is a fail-signal
// pair).
//
// Run: ./replicated_auction
#include <cstdio>
#include <map>

#include "deploy/fsnewtop.hpp"

using namespace failsig;

namespace {

/// Deterministic auction state machine applied identically at every member.
struct AuctionState {
    std::string leader_bidder = "(none)";
    std::int64_t highest_bid = 0;
    int bids_processed = 0;

    void apply(const Bytes& bid_wire) {
        ByteReader r(bid_wire);
        const std::string bidder = r.str();
        const std::int64_t amount = r.i64();
        ++bids_processed;
        // Ties resolve to the earlier bid in the total order — which is the
        // same bid at every replica, because the order is the same.
        if (amount > highest_bid) {
            highest_bid = amount;
            leader_bidder = bidder;
        }
    }
};

Bytes bid(const std::string& bidder, std::int64_t amount) {
    ByteWriter w;
    w.str(bidder);
    w.i64(amount);
    return w.take();
}

}  // namespace

int main() {
    constexpr int kMembers = 3;
    deploy::DeploymentSpec spec;
    spec.group_size = kMembers;
    deploy::FsNewTopDeployment d(spec);

    AuctionState replicas[kMembers];
    deploy::Observers observers;
    observers.delivered = [&replicas](int member, const Bytes& payload) {
        replicas[member].apply(payload);
    };
    d.attach(std::move(observers));

    // Bidders race from different members; amounts deliberately interleave.
    struct Submission {
        int member;
        const char* bidder;
        std::int64_t amount;
    };
    const Submission submissions[] = {
        {0, "alice", 100}, {1, "bob", 120},  {2, "carol", 110}, {0, "alice", 130},
        {2, "carol", 130} /* tie with alice's 130 */, {1, "bob", 125},
    };
    for (const auto& s : submissions) d.submit(s.member, bid(s.bidder, s.amount));
    d.run();

    std::printf("auction closed after %d bids\n", replicas[0].bids_processed);
    for (int i = 0; i < kMembers; ++i) {
        std::printf("  replica %d: winner=%s at %lld (processed %d bids)\n", i,
                    replicas[i].leader_bidder.c_str(),
                    static_cast<long long>(replicas[i].highest_bid),
                    replicas[i].bids_processed);
    }

    const bool agree = replicas[0].leader_bidder == replicas[1].leader_bidder &&
                       replicas[1].leader_bidder == replicas[2].leader_bidder &&
                       replicas[0].highest_bid == replicas[2].highest_bid;
    std::printf("replicas agree on the winner: %s\n", agree ? "YES" : "NO (bug!)");
    std::printf("note: the 130/130 tie resolves identically everywhere because every replica\n"
                "sees the bids in the same total order - the property FS-NewTOP guarantees\n"
                "without any liveness assumption on the asynchronous network.\n");
    return agree ? 0 : 1;
}
