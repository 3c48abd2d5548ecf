// Baseline comparator: a from-scratch authenticated-Byzantine total-order
// protocol in the style the paper contrasts itself against ([CL99] and the
// class of protocols it cites in §1): 3f+1 replicas, primary-assigned
// sequence numbers, and a three-phase exchange (pre-prepare, prepare,
// commit) with quorum 2f+1. Unlike the fail-signal approach it
//  * needs at least one extra communication round over a crash-tolerant
//    sequencer protocol, and
//  * relies on a *liveness* condition for termination: if the primary is
//    silent, progress resumes only after a timeout-triggered view change —
//    exactly the speculative-timeout dependence FS-NewTOP removes.
//
// The replica is a deterministic state machine (same style as
// newtop::GcService) so it can be driven by the simulator or in-memory.
// Input operations:
//   "request"  body = ClientRequest        (from the local application)
//   "pbft"     body = PbftMessage          (from a peer replica)
//   "timeout"  body = u64 view number      (liveness timer fired)
#pragma once

#include <map>
#include <set>
#include <utility>

#include "app/kv_store.hpp"
#include "common/wire.hpp"
#include "fs/servant.hpp"
#include "fs/service.hpp"
#include "obs/obs.hpp"
#include "orb/request.hpp"

namespace failsig::baseline {

using ReplicaId = std::uint32_t;

enum class PbftKind : std::uint8_t {
    kPrePrepare = 1,
    kPrepare = 2,
    kCommit = 3,
    kViewChange = 4,
    kNewView = 5,
    kCheckpoint = 6,    ///< replica took a checkpoint at seq (digest = app digest)
    kStateRequest = 7,  ///< recovering replica asks peers for a RecoveryState
    kStateReply = 8,    ///< RecoveryState carried in request.payload
};

struct ClientRequest {
    ReplicaId origin{0};
    std::uint64_t origin_seq{0};
    Bytes payload;

    /// The wire layout (see common/wire.hpp).
    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.u32(m.origin);
        io.u64(m.origin_seq);
        io.bytes(m.payload);
    }

    /// Exact encoded size; hot encoders reserve() this up front.
    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<ClientRequest> decode(std::span<const std::uint8_t> data) {
        return wire::decode<ClientRequest>(data);
    }
    friend bool operator==(const ClientRequest&, const ClientRequest&) = default;
};

struct PbftMessage {
    PbftKind kind{PbftKind::kPrePrepare};
    ReplicaId sender{0};
    std::uint64_t view{0};
    std::uint64_t seq{0};
    Bytes digest;            ///< MD5 of the request (binds phases together)
    ClientRequest request;   ///< carried in pre-prepare only

    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.u8(m.kind);
        io.check(m.kind >= PbftKind::kPrePrepare && m.kind <= PbftKind::kStateReply,
                 "bad PbftKind");
        io.u32(m.sender);
        io.u64(m.view);
        io.u64(m.seq);
        io.bytes(m.digest);
        io.nested(m.request);
    }

    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<PbftMessage> decode(std::span<const std::uint8_t> data) {
        return wire::decode<PbftMessage>(data);
    }
};

struct PbftConfig {
    ReplicaId self{0};
    std::uint32_t n{4};  ///< total replicas; tolerates f = (n-1)/3 faults
    std::map<ReplicaId, fs::Destination> peers;
    fs::Destination delivery;
    Duration protocol_op_cost{120 * kMicrosecond};
    /// Observability context (nullptr = off); write-only side channel, the
    /// state machine stays deterministic either way.
    obs::Obs* obs{nullptr};
    /// Member label for this replica's flight-recorder events.
    int obs_member{-1};
    /// Take an application checkpoint every this many delivered requests and
    /// truncate `slots_` at the stable watermark; 0 = off (the pre-existing
    /// unbounded-log behavior, byte-identical on the wire).
    std::uint64_t checkpoint_interval{0};
};

/// Everything a recovering replica needs to catch up: the latest stable
/// application snapshot plus the committed suffix above its watermark.
/// Carried in a kStateReply's request.payload.
struct RecoveryState {
    std::uint64_t view{0};
    /// Stable checkpoint watermark S (0 = no checkpoint yet; snapshot empty).
    std::uint64_t snapshot_watermark{0};
    /// Highest delivered sequence W at the serving replica.
    std::uint64_t last_delivered{0};
    /// app::KvStore snapshot at S (empty when S == 0).
    Bytes app_snapshot;
    /// Committed requests for (S, W], ascending by sequence.
    std::vector<std::pair<std::uint64_t, ClientRequest>> suffix;

    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.u64(m.view);
        io.u64(m.snapshot_watermark);
        io.u64(m.last_delivered);
        io.check(m.snapshot_watermark <= m.last_delivered, "watermark past last_delivered");
        io.bytes(m.app_snapshot);
        std::uint64_t next = m.snapshot_watermark + 1;
        // The suffix spans one checkpoint window of committed requests;
        // anything past this bound is a corrupt frame.
        io.list(m.suffix, 65536, "implausible suffix count", [&](auto& entry) {
            io.u64(entry.first);
            io.check(entry.first == next++, "non-contiguous suffix");
            io.nested(entry.second);
        });
        io.check(m.suffix.size() == m.last_delivered - m.snapshot_watermark,
                 "suffix count does not cover (S, W]");
    }

    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<RecoveryState> decode(std::span<const std::uint8_t> data) {
        return wire::decode<RecoveryState>(data);
    }
    friend bool operator==(const RecoveryState&, const RecoveryState&) = default;
};

/// What a replica hands to the application on commit.
struct PbftDelivery {
    std::uint64_t seq{0};
    ClientRequest request;

    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.u64(m.seq);
        io.nested(m.request);
    }

    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<PbftDelivery> decode(std::span<const std::uint8_t> data) {
        return wire::decode<PbftDelivery>(data);
    }
};

class PbftReplica final : public fs::DeterministicService {
public:
    explicit PbftReplica(PbftConfig config);

    std::vector<fs::Outbound> process(const std::string& operation, const Bytes& body) override;
    [[nodiscard]] Duration processing_cost(const std::string& operation,
                                           const Bytes& body) const override;

    [[nodiscard]] std::uint64_t view() const { return view_; }
    [[nodiscard]] ReplicaId primary() const { return static_cast<ReplicaId>(view_ % cfg_.n); }
    [[nodiscard]] bool is_primary() const { return primary() == cfg_.self; }
    [[nodiscard]] std::uint32_t f() const { return (cfg_.n - 1) / 3; }
    [[nodiscard]] std::uint64_t view_changes() const { return view_changes_; }

    /// Replicated application state (driven by the delivery path).
    [[nodiscard]] const app::KvStore& app() const { return app_; }
    /// High-water mark of `slots_` occupancy — the boundedness witness: with
    /// checkpointing on, sustained load keeps this under a small multiple of
    /// the checkpoint interval instead of growing with the run.
    [[nodiscard]] std::uint64_t log_slots_retained() const { return log_slots_retained_; }
    [[nodiscard]] std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }
    [[nodiscard]] std::uint64_t log_slots_truncated() const { return log_slots_truncated_; }
    [[nodiscard]] std::uint64_t state_transfers_served() const { return state_transfers_served_; }
    [[nodiscard]] std::uint64_t recoveries_completed() const { return recoveries_completed_; }
    [[nodiscard]] bool recovering() const { return recovering_; }

private:
    using Out = std::vector<fs::Outbound>;

    struct Slot {
        bool pre_prepared{false};
        ClientRequest request;
        Bytes digest;
        std::set<ReplicaId> prepares;
        std::set<ReplicaId> commits;
        bool committed{false};
        bool delivered{false};
    };

    void on_request(const ClientRequest& request, Out& out);
    void on_pbft(const PbftMessage& msg, Out& out);
    void on_timeout(std::uint64_t view, Out& out);
    void maybe_checkpoint(std::uint64_t seq, Out& out);
    void on_checkpoint(const PbftMessage& msg, Out& out);
    void maybe_stabilize(std::uint64_t seq, const Bytes& digest);
    void begin_recovery(Out& out);
    void serve_state(ReplicaId requester, Out& out);
    void on_state_reply(const PbftMessage& msg, Out& out);
    void note_log_occupancy();
    void assign_and_prepreprepare(const ClientRequest& request, Out& out);
    void maybe_prepare(std::uint64_t seq, Out& out);
    void maybe_commit(std::uint64_t seq, Out& out);
    void try_deliver(Out& out);
    void broadcast(const PbftMessage& msg, Out& out);
    void send_to(ReplicaId r, const PbftMessage& msg, Out& out);
    void deliver(std::uint64_t seq, const ClientRequest& request, Out& out);

    PbftConfig cfg_;
    std::uint64_t view_{0};
    std::uint64_t next_assign_{1};
    std::uint64_t next_deliver_{1};
    std::map<std::uint64_t, Slot> slots_;  // keyed by seq (single view history)
    std::set<std::pair<ReplicaId, std::uint64_t>> seen_requests_;
    std::vector<ClientRequest> pending_;   // awaiting assignment (non-primary backlog)
    std::map<std::uint64_t, std::set<ReplicaId>> view_change_votes_;
    std::uint64_t view_changes_{0};

    // --- checkpoint / recovery state ---------------------------------------
    app::KvStore app_;
    std::uint64_t stable_checkpoint_{0};
    Bytes stable_snapshot_;
    /// Local snapshots awaiting stability, keyed by checkpoint seq.
    std::map<std::uint64_t, Bytes> checkpoint_snapshots_;
    /// Votes per (checkpoint seq, app digest) — digest-binding keeps a
    /// diverged replica from stabilizing the wrong state.
    std::map<std::pair<std::uint64_t, Bytes>, std::set<ReplicaId>> checkpoint_votes_;
    bool recovering_{false};
    std::uint64_t checkpoints_taken_{0};
    std::uint64_t log_slots_truncated_{0};
    std::uint64_t log_slots_retained_{0};
    std::uint64_t state_transfers_served_{0};
    std::uint64_t recoveries_completed_{0};
};

/// A replica as an ORB object: serialized inputs, per-input CPU cost.
using PbftServant = fs::ServiceServant<PbftReplica>;

}  // namespace failsig::baseline
