// The NewTOP Group Communication (GC) service object.
//
// Implements the protocols of paper §3: symmetric total order (a message is
// ordered only after being logically acknowledged by all members), asymmetric
// (sequencer-based) total order, causal order, reliable FIFO multicast,
// simple (unreliable) multicast, and partitionable group membership.
//
// The service is written as a *pure deterministic state machine*
// (fs::DeterministicService): inputs arrive as (operation, bytes) and outputs
// are returned as messages to peers / deliveries to the application. It reads
// no clocks and uses no randomness, so the very same class runs
//   * unwrapped, as crash-tolerant NewTOP (suspicions come from a ping-based
//     suspector and can be false -> group splitting), and
//   * wrapped in a fail-signal pair, as FS-NewTOP (suspicions come from
//     fail-signals and are never false) —
// which is exactly the paper's "small modifications" porting claim.
//
// Input operations:
//   "multicast"     body = MulticastRequest      (from the Invocation layer)
//   "gc"            body = GcMessage             (from a peer GC)
//   "suspect"       body = u32 member id         (from a suspector module)
//   "__failsignal"  body = FS process name       (FS-NewTOP: converted to a
//                                                 suspicion; never false)
//   "__rejoin"      body = empty                 (recovery driver: wipe local
//                                                 state and ask the survivors
//                                                 for readmission)
#pragma once

#include <map>
#include <set>

#include "app/kv_store.hpp"
#include "fs/servant.hpp"
#include "fs/service.hpp"
#include "newtop/wire.hpp"
#include "obs/obs.hpp"

namespace failsig::newtop {

struct GcConfig {
    MemberId self{0};
    std::vector<MemberId> initial_members;            ///< sorted member ids
    std::map<MemberId, fs::Destination> peers;        ///< where each member's GC lives
    fs::Destination delivery;                         ///< local application layer
    std::map<std::string, MemberId> fs_members;       ///< FS process name -> member
    /// CPU cost charged per protocol input (see sim::CostModel).
    Duration protocol_op_cost{120 * kMicrosecond};
    /// Observability context (nullptr = off). In FS-NewTOP only the pair's
    /// leader replica gets a non-null pointer, so replicated execution does
    /// not double-count stamps. Metrics are write-only side channels — the
    /// state machine stays deterministic with or without them.
    obs::Obs* obs{nullptr};
    /// Member index used to label this GC's flight-recorder events.
    int obs_member{-1};
    /// Replicated KV app checkpoint cadence (0 = no periodic checkpoints).
    std::uint64_t checkpoint_interval{0};
};

class GcService final : public fs::DeterministicService {
public:
    explicit GcService(GcConfig config);

    std::vector<fs::Outbound> process(const std::string& operation, const Bytes& body) override;
    [[nodiscard]] Duration processing_cost(const std::string& operation,
                                           const Bytes& body) const override;

    // --- introspection (tests, examples, benches) -------------------------
    [[nodiscard]] const GroupView& view() const { return view_; }
    [[nodiscard]] MemberId self() const { return cfg_.self; }
    /// True while a view-change flush round is in progress (new application
    /// traffic is held and the symmetric stream is deferred).
    [[nodiscard]] bool flushing() const { return flush_pending_ != 0; }
    /// The replicated KV application this GC drives (totally ordered
    /// deliveries only — see deliver()).
    [[nodiscard]] const app::KvStore& app() const { return app_; }
    [[nodiscard]] std::uint64_t rejoins_completed() const { return rejoins_completed_; }
    /// Retained-log entries dropped by the hard caps (not watermark prunes).
    [[nodiscard]] std::uint64_t flush_log_evictions() const { return flush_log_evictions_; }
    /// Flush rounds where a cap-evicted entry was above the merged floor and
    /// no survivor could re-supply it — the agreement hole the caps risk.
    [[nodiscard]] std::uint64_t flush_eviction_gaps() const { return flush_eviction_gaps_; }

private:
    using Out = std::vector<fs::Outbound>;

    // input dispatch
    void on_multicast(const MulticastRequest& request, Out& out);
    void on_gc_message(const GcMessage& msg, Out& out);
    void on_suspect(MemberId member, Out& out);

    // symmetric total order
    void enqueue_sym_stream(const GcMessage& msg, Out& out);
    void handle_sym_data(const GcMessage& msg, Out& out);
    void handle_sym_ack(const GcMessage& msg);
    void check_sym_delivery(Out& out);

    // asymmetric total order
    void handle_asym_data(const GcMessage& msg, Out& out);
    void handle_asym_order(const GcMessage& msg, Out& out);
    void check_asym_delivery(Out& out);
    [[nodiscard]] MemberId sequencer() const { return view_.coordinator(); }

    // causal order
    void handle_causal_data(const GcMessage& msg, Out& out);
    void check_causal_delivery(Out& out);

    // reliable / unreliable multicast
    void handle_rel_data(const GcMessage& msg, Out& out);

    // membership
    void maybe_propose_view(Out& out);
    void handle_view_propose(const GcMessage& msg, Out& out);
    void install_view(std::uint64_t view_id, std::vector<MemberId> members, Out& out);
    /// True iff `msg.sender` is the lowest member of `msg.view_members` that
    /// is not a pending joiner (joiners never coordinate: they have no state
    /// to merge a flush from).
    [[nodiscard]] bool plausible_coordinator(const GcMessage& msg) const;

    // rejoin (crash recovery)
    void begin_rejoin(Out& out);
    void handle_join_request(const GcMessage& msg, Out& out);
    void handle_join_grant(const GcMessage& msg, Out& out);
    void send_join_grants(Out& out);
    void maybe_complete_join(Out& out);

    // view-synchronous flush
    /// Coordinator-side accumulator for one flush round. Rounds are keyed by
    /// proposal id in flush_rounds_ so a re-propose (survivor crashed
    /// mid-flush) starts a fresh round and stale states are discarded.
    /// A member's state has arrived iff it has an entry in sym_marks.
    struct FlushRound {
        std::vector<MemberId> members;
        std::map<std::pair<std::uint64_t, MemberId>, GcMessage> sym_entries;
        std::map<std::uint64_t, GcMessage> asym_entries;
        std::map<MemberId, std::pair<std::uint64_t, MemberId>> sym_marks;
        std::map<MemberId, std::uint64_t> asym_marks;
    };
    void enter_flush(std::uint64_t proposal_id);
    [[nodiscard]] FlushState local_flush_state() const;
    void merge_flush_state(FlushRound& round, MemberId sender, const FlushState& state);
    void handle_flush_state(const GcMessage& msg, Out& out);
    void handle_flush_done(const GcMessage& msg, Out& out);
    void maybe_complete_flush(Out& out);
    void apply_cut(const FlushState& cut, Out& out);
    void prune_sym_retained();

    // helpers
    void send_to(MemberId member, const GcMessage& msg, Out& out);
    void broadcast(const GcMessage& msg, Out& out);  // to all view members but self
    void deliver(Delivery d, Out& out);
    void bump_clock(std::uint64_t observed_ts);
    [[nodiscard]] std::size_t member_index(MemberId m) const;

    GcConfig cfg_;
    GroupView view_;
    std::set<MemberId> suspected_;
    std::uint64_t lamport_{0};

    // symmetric TO
    std::uint64_t sym_seq_{0};
    std::map<std::pair<std::uint64_t, MemberId>, GcMessage> sym_buffer_;
    std::map<MemberId, std::uint64_t> latest_ts_;
    // per-sender FIFO re-sequencing of the sym DATA/ACK stream
    std::uint64_t sym_stream_out_{0};
    std::map<MemberId, std::uint64_t> sym_stream_next_;
    std::map<MemberId, std::map<std::uint64_t, GcMessage>> sym_holdback_;

    // asymmetric TO
    std::uint64_t asym_seq_{0};
    std::uint64_t asym_next_assign_{1};
    std::uint64_t asym_next_deliver_{1};
    std::uint64_t highest_order_seen_{0};
    std::map<std::uint64_t, GcMessage> asym_buffer_;

    // causal
    std::vector<std::uint64_t> vc_;
    std::map<MemberId, std::uint64_t> causal_delivered_;
    std::vector<GcMessage> causal_buffer_;

    // reliable FIFO
    std::uint64_t rel_seq_{0};
    std::map<MemberId, std::uint64_t> fifo_next_;
    std::map<MemberId, std::map<std::uint64_t, GcMessage>> fifo_buffer_;

    // membership protocol
    std::uint64_t last_proposed_id_{0};
    std::uint64_t highest_view_seen_{0};

    // view-synchronous flush
    /// Proposal id currently being flushed (0 = not flushing). While set, new
    /// multicasts are held in flush_held_multicasts_ and the resequenced sym
    /// DATA/ACK stream is parked in flush_deferred_ instead of mutating
    /// ordering state, so the FlushState we announced stays accurate.
    std::uint64_t flush_pending_{0};
    std::map<std::uint64_t, FlushRound> flush_rounds_;
    std::vector<GcMessage> flush_deferred_;
    std::vector<MulticastRequest> flush_held_multicasts_;
    /// Highest symmetric (lamport_ts, sender) position delivered locally.
    std::pair<std::uint64_t, MemberId> sym_watermark_{0, 0};
    /// Recently delivered messages retained for flush patch-up: a survivor
    /// may have delivered a message a correct peer never received, so flush
    /// states must be able to re-supply delivered bodies, not just buffered
    /// ones. Pruned as ACK-piggybacked peer watermarks advance (sym) or by a
    /// hard cap (both); cleared on view install — retention spans one epoch.
    std::map<std::pair<std::uint64_t, MemberId>, GcMessage> sym_retained_;
    std::map<std::uint64_t, GcMessage> asym_retained_;
    /// Peers' delivery watermarks, piggybacked on sym ACKs.
    std::map<MemberId, std::pair<std::uint64_t, MemberId>> peer_watermark_;
    static constexpr std::size_t kSymRetainedCap = 4096;
    static constexpr std::size_t kAsymRetainedCap = 1024;
    /// Keys the hard caps evicted from the retained logs this epoch. A key
    /// still here when a flush round's floor passes below it is an entry some
    /// survivor may need and nobody can re-supply: counted as a gap (and the
    /// flight recorder notes it), never silently ignored. Keys leave the set
    /// when the peer-watermark prune proves them globally delivered, and the
    /// set restarts with the retention epoch on view install.
    std::set<std::pair<std::uint64_t, MemberId>> sym_evicted_;
    std::set<std::uint64_t> asym_evicted_;

    // rejoin (crash recovery)
    /// Members whose kJoinRequest we have seen and not yet granted.
    std::set<MemberId> join_pending_;
    /// Joiner side: grants collected for the join view (keyed by granter).
    std::map<MemberId, JoinGrant> join_grants_;
    std::uint64_t join_grant_view_{0};
    /// Ordinary traffic (kData/kAck/kOrder) parked while joining; replayed
    /// through on_gc_message once the grant exchange completes.
    std::vector<GcMessage> join_deferred_;
    bool joining_{false};

    /// Replicated deterministic application driven by the delivery upcall.
    app::KvStore app_;

    std::uint64_t delivery_out_seq_{0};
    std::uint64_t rejoins_completed_{0};
    std::uint64_t flush_log_evictions_{0};
    std::uint64_t flush_eviction_gaps_{0};
};

/// The crash-tolerant NewTOP GC object: one GcService hosted unwrapped.
using GcServant = fs::ServiceServant<GcService>;

}  // namespace failsig::newtop
