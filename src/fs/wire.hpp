// Wire formats used by the fail-signal machinery.
//
//  * FsInput      — a logical input to an FS process (deduplicated by uid).
//  * FsOrder      — leader/follower input-ordering records (Appendix A:
//                   receiveDouble traffic; seq 0 means "not yet ordered").
//  * FsOutput     — an output record: identity (input seq, output index),
//                   destination, operation and body. The *entire* record is
//                   what the Compare processes match, so a faulty replica
//                   that keeps the payload but redirects the message is
//                   caught too.
//  * FsFailSignal — the unique fail-signal of an FS process.
//
// Each is carried inside a crypto::SignedEnvelope; a one-byte kind tag leads
// every payload so receivers can dispatch without guessing.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/wire.hpp"
#include "fs/service.hpp"
#include "orb/request.hpp"

namespace failsig::fs {

enum class WireKind : std::uint8_t {
    kInput = 1,
    kOrder = 2,
    kOutput = 3,
    kFailSignal = 4,
};

/// Reads the kind tag without consuming the buffer.
Result<WireKind> peek_kind(std::span<const std::uint8_t> data);

/// An ObjectRef's wire layout (see common/wire.hpp): node, port, key.
template <typename IO, typename R>
[[gnu::always_inline]] inline void object_ref_fields(IO& io, R& ref) {
    io.u32(ref.endpoint.node.value);
    io.u32(ref.endpoint.port.value);
    io.bytes(ref.key);
}

struct FsInput {
    std::string uid;            ///< global dedup key for this logical input
    std::string operation;      ///< target service operation
    Bytes body;                 ///< service-level payload
    std::string origin_fs;      ///< source FS process name; empty for clients
    orb::ObjectRef origin_ref;  ///< client reply reference; empty for FS origin

    /// The wire layout (see common/wire.hpp).
    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.tag(WireKind::kInput);
        io.bytes(m.uid);
        io.bytes(m.operation);
        io.bytes(m.body);
        io.bytes(m.origin_fs);
        object_ref_fields(io, m.origin_ref);
    }

    /// Exact encoded size; hot encoders reserve() this up front.
    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<FsInput> decode(std::span<const std::uint8_t> data) {
        return wire::decode<FsInput>(data);
    }

    friend bool operator==(const FsInput&, const FsInput&) = default;
};

struct FsOrder {
    std::uint64_t seq{0};  ///< leader-assigned order; 0 = unordered dispatch
    FsInput input;

    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.tag(WireKind::kOrder);
        io.u64(m.seq);
        io.nested(m.input);
    }

    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<FsOrder> decode(std::span<const std::uint8_t> data) {
        return wire::decode<FsOrder>(data);
    }
};

struct FsOutput {
    std::string source_fs;
    std::uint64_t input_seq{0};
    std::uint32_t out_index{0};
    std::vector<fs::Destination> dests;
    std::string operation;
    Bytes body;

    /// Output identity within its FS process.
    [[nodiscard]] std::pair<std::uint64_t, std::uint32_t> id() const {
        return {input_seq, out_index};
    }

    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.tag(WireKind::kOutput);
        io.bytes(m.source_fs);
        io.u64(m.input_seq);
        io.u32(m.out_index);
        io.list(m.dests, 4096, "implausible destination count", [&](auto& d) {
            io.u8(d.is_fs);
            io.bytes(d.fs_name);
            object_ref_fields(io, d.ref);
        });
        io.bytes(m.operation);
        io.bytes(m.body);
    }

    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<FsOutput> decode(std::span<const std::uint8_t> data) {
        return wire::decode<FsOutput>(data);
    }

    friend bool operator==(const FsOutput&, const FsOutput&) = default;
};

struct FsFailSignal {
    std::string source_fs;

    template <typename IO, typename M>
    [[gnu::always_inline]] static void fields(IO& io, M& m) {
        io.tag(WireKind::kFailSignal);
        io.bytes(m.source_fs);
    }

    [[nodiscard]] std::size_t wire_size() const { return wire::size(*this); }
    [[nodiscard]] Bytes encode() const { return wire::encode(*this); }
    static Result<FsFailSignal> decode(std::span<const std::uint8_t> data) {
        return wire::decode<FsFailSignal>(data);
    }
};

/// object_ref_fields over a caller's writer or reader (truncation throws
/// std::out_of_range, as ByteReader does).
inline void encode_object_ref(ByteWriter& w, const orb::ObjectRef& ref) {
    wire::Writer io(w);
    object_ref_fields(io, ref);
}
inline orb::ObjectRef decode_object_ref(ByteReader& r) {
    orb::ObjectRef ref;
    wire::Reader io(r);
    object_ref_fields(io, ref);
    return ref;
}

}  // namespace failsig::fs
