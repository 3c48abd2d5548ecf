// NewTOP wire formats: GC-to-GC protocol messages, application multicast
// requests, and deliveries to the application layer.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/wire.hpp"
#include "newtop/types.hpp"

namespace failsig::newtop {

/// GC protocol message kinds.
enum class GcKind : std::uint8_t {
    kData = 1,         ///< application payload multicast
    kAck = 2,          ///< Lamport-clock announcement (symmetric TO stability)
    kOrder = 3,        ///< sequencer order assignment (asymmetric TO)
    kViewPropose = 4,  ///< coordinator proposes a new view
    // 5 and 6 are unassigned and decode rejects them: a survivor's
    // kFlushState is its acceptance, and kFlushDone performs the install.
    kFlushState = 7,   ///< survivor -> coordinator: FlushState for a proposal
    kFlushDone = 8,    ///< coordinator -> survivors: agreed cut, then install
    kJoinRequest = 9,  ///< rejoining member asks the survivors for readmission
    kJoinGrant = 10,   ///< survivor -> joiner: protocol positions + app state
};

/// The kinds and service classes a decoder accepts.
inline bool valid(GcKind k) {
    const int v = static_cast<int>(k);
    return v >= 1 && v <= 10 && v != 5 && v != 6;
}
inline bool valid(ServiceType s) {
    return s >= ServiceType::kSymmetricTotalOrder && s <= ServiceType::kUnreliableMulticast;
}

/// One GC-to-GC protocol message. A single struct with optional fields keeps
/// the codec simple; `kind` says which fields are meaningful.
struct GcMessage {
    GcKind kind{GcKind::kData};
    MemberId sender{0};
    /// Per-sender FIFO stream position for symmetric-order traffic (DATA and
    /// ACK). The symmetric protocol's stability rule is only sound if each
    /// sender's clock announcements arrive in order; plain NewTOP gets that
    /// from TCP, but FS-wrapped GC outputs race over four redundant wire
    /// paths, so receivers re-sequence by this number (hold-back queue).
    std::uint64_t stream_seq{0};

    // kData
    ServiceType service{ServiceType::kSymmetricTotalOrder};
    std::uint64_t sender_seq{0};   ///< per-sender sequence number
    std::uint64_t lamport_ts{0};   ///< Lamport timestamp (symmetric/causal)
    Bytes payload;
    std::vector<std::uint64_t> vector_clock;  ///< causal order only

    // kAck
    // (lamport_ts carries the acker's clock)

    // kOrder
    std::uint64_t global_seq{0};
    MemberId origin{0};            ///< original sender of the ordered message

    // kViewPropose / kFlushState / kFlushDone
    // (kFlushState and kFlushDone carry an encoded FlushState in `payload`;
    // nesting keeps every pre-flush message kind byte-identical on the wire)
    std::uint64_t view_id{0};
    std::vector<MemberId> view_members;

    /// The wire layout (see common/wire.hpp).
    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.u8(m.kind);
        io.check(valid(m.kind), "bad GcKind");
        io.u32(m.sender);
        io.u64(m.stream_seq);
        io.u8(m.service);
        io.check(valid(m.service), "bad ServiceType");
        io.u64(m.sender_seq);
        io.u64(m.lamport_ts);
        io.bytes(m.payload);
        io.list(m.vector_clock, 4096, "implausible vector clock", [&](auto& v) { io.u64(v); });
        io.u64(m.global_seq);
        io.u32(m.origin);
        io.u64(m.view_id);
        io.list(m.view_members, 4096, "implausible view size", [&](auto& v) { io.u32(v); });
    }

    /// Exact encoded size; hot encoders reserve() this up front.
    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<GcMessage> decode(std::span<const std::uint8_t> data) {
        return wire::decode<GcMessage>(data);
    }

    friend bool operator==(const GcMessage&, const GcMessage&) = default;
};

/// View-synchronous flush exchange. On a view proposal every survivor sends
/// the coordinator its FlushState (kFlushState payload): its delivery
/// watermarks plus every old-view message it still buffers or recently
/// delivered, full bodies included. The coordinator merges the states into
/// one agreed cut — the same structure, entries deduplicated and pruned to
/// what some survivor still lacks — and fans it back out (kFlushDone
/// payload). Entries are whole GcMessages: symmetric kData records keyed by
/// (lamport_ts, sender) and asymmetric kOrder records keyed by global_seq.
struct FlushState {
    /// Highest symmetric (lamport_ts, sender) position delivered locally.
    std::uint64_t sym_watermark_ts{0};
    MemberId sym_watermark_sender{0};
    /// Highest asymmetric global sequence delivered locally (0 = none).
    std::uint64_t asym_delivered{0};
    /// Old-view messages available for the cut (sym kData / asym kOrder).
    std::vector<GcMessage> entries;

    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.u64(m.sym_watermark_ts);
        io.u32(m.sym_watermark_sender);
        io.u64(m.asym_delivered);
        // A flush cut spans one view epoch's in-flight window; anything past
        // this bound is a corrupt frame, not a bigger group.
        io.list(m.entries, 65536, "implausible flush entry count",
                [&](auto& entry) { io.nested(entry); });
    }

    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<FlushState> decode(std::span<const std::uint8_t> data) {
        return wire::decode<FlushState>(data);
    }

    friend bool operator==(const FlushState&, const FlushState&) = default;
};

/// Rejoin state transfer: after a join view installs, every survivor sends
/// the joiner its protocol positions plus (from the lowest-id granter) the
/// replicated app snapshot — everything the joiner needs to resume as if it
/// had delivered the whole prefix. Carried in a kJoinGrant's `payload`.
struct JoinGrant {
    /// Granter's Lamport clock (joiner adopts the max over granters).
    std::uint64_t lamport{0};
    /// Granter's outgoing per-sender stream position (joiner resumes its
    /// hold-back for this granter at +1).
    std::uint64_t sym_stream_out{0};
    /// Granter's reliable-FIFO sender sequence (joiner expects +1 next).
    std::uint64_t rel_seq{0};
    /// Causal messages the joiner should consider delivered from this
    /// granter.
    std::uint64_t causal_out{0};
    /// Granter's symmetric delivery watermark (joiner adopts the lowest-id
    /// granter's positions wholesale).
    std::uint64_t sym_watermark_ts{0};
    MemberId sym_watermark_sender{0};
    std::uint64_t asym_next_deliver{1};
    std::uint64_t asym_next_assign{1};
    /// Granter's causal vector clock, indexed like its member list.
    std::vector<std::uint64_t> vector_clock;
    /// app::KvStore snapshot (lowest-id granter's copy is restored).
    Bytes app_snapshot;

    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.u64(m.lamport);
        io.u64(m.sym_stream_out);
        io.u64(m.rel_seq);
        io.u64(m.causal_out);
        io.u64(m.sym_watermark_ts);
        io.u32(m.sym_watermark_sender);
        io.u64(m.asym_next_deliver);
        io.u64(m.asym_next_assign);
        io.check(m.asym_next_deliver != 0 && m.asym_next_assign != 0,
                 "asym positions are 1-based");
        io.list(m.vector_clock, 4096, "implausible vector clock", [&](auto& v) { io.u64(v); });
        io.bytes(m.app_snapshot);
    }

    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<JoinGrant> decode(std::span<const std::uint8_t> data) {
        return wire::decode<JoinGrant>(data);
    }

    friend bool operator==(const JoinGrant&, const JoinGrant&) = default;
};

/// What the application hands to the Invocation service.
struct MulticastRequest {
    ServiceType service{ServiceType::kSymmetricTotalOrder};
    Bytes payload;

    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.u8(m.service);
        io.check(valid(m.service), "bad ServiceType");
        io.bytes(m.payload);
    }

    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<MulticastRequest> decode(std::span<const std::uint8_t> data) {
        return wire::decode<MulticastRequest>(data);
    }
};

/// What the GC delivers up to the application layer.
struct Delivery {
    enum class Kind : std::uint8_t { kMessage = 1, kView = 2 };
    Kind kind{Kind::kMessage};

    /// Position in the GC's delivery stream (1, 2, 3, ...). The Invocation
    /// layer re-sequences on this: FS-wrapped GC deliveries travel as
    /// independent signed outputs and may overtake each other on the wire.
    std::uint64_t delivery_seq{0};

    // kMessage
    MemberId sender{0};
    ServiceType service{ServiceType::kSymmetricTotalOrder};
    std::uint64_t sender_seq{0};
    Bytes payload;

    // kView
    GroupView view;

    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.u8(m.kind);
        io.check(m.kind == Kind::kMessage || m.kind == Kind::kView, "bad Delivery kind");
        io.u64(m.delivery_seq);
        io.u32(m.sender);
        io.u8(m.service);
        io.check(valid(m.service), "bad ServiceType");
        io.u64(m.sender_seq);
        io.bytes(m.payload);
        io.u64(m.view.view_id);
        io.list(m.view.members, 4096, "implausible view size", [&](auto& v) { io.u32(v); });
    }

    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<Delivery> decode(std::span<const std::uint8_t> data) {
        return wire::decode<Delivery>(data);
    }

    friend bool operator==(const Delivery&, const Delivery&) = default;
};

}  // namespace failsig::newtop
