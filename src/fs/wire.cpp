#include "fs/wire.hpp"

namespace failsig::fs {

void encode_object_ref(ByteWriter& w, const orb::ObjectRef& ref) {
    w.u32(ref.endpoint.node.value);
    w.u32(ref.endpoint.port.value);
    w.str(ref.key);
}

orb::ObjectRef decode_object_ref(ByteReader& r) {
    orb::ObjectRef ref;
    ref.endpoint.node.value = r.u32();
    ref.endpoint.port.value = r.u32();
    ref.key = r.str();
    return ref;
}

Result<WireKind> peek_kind(std::span<const std::uint8_t> data) {
    if (data.empty()) return Result<WireKind>::err("empty wire payload");
    const auto tag = data[0];
    if (tag < 1 || tag > 4) return Result<WireKind>::err("unknown wire kind");
    return static_cast<WireKind>(tag);
}

// --- FsInput ---------------------------------------------------------------

std::size_t FsInput::wire_size() const {
    return 1 + (4 + uid.size()) + (4 + operation.size()) + (4 + body.size()) +
           (4 + origin_fs.size()) + (4 + 4 + 4 + origin_ref.key.size());
}

Bytes FsInput::encode() const {
    ByteWriter w;
    w.reserve(wire_size());
    w.u8(static_cast<std::uint8_t>(WireKind::kInput));
    w.str(uid);
    w.str(operation);
    w.bytes(body);
    w.str(origin_fs);
    encode_object_ref(w, origin_ref);
    return w.take();
}

Result<FsInput> FsInput::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        if (r.u8() != static_cast<std::uint8_t>(WireKind::kInput)) {
            return Result<FsInput>::err("not an FsInput");
        }
        FsInput in;
        in.uid = r.str();
        in.operation = r.str();
        in.body = r.bytes();
        in.origin_fs = r.str();
        in.origin_ref = decode_object_ref(r);
        if (!r.done()) return Result<FsInput>::err("trailing bytes");
        return in;
    } catch (const std::out_of_range&) {
        return Result<FsInput>::err("truncated FsInput");
    }
}

// --- FsOrder ---------------------------------------------------------------

std::size_t FsOrder::wire_size() const { return 1 + 8 + 4 + input.wire_size(); }

Bytes FsOrder::encode() const {
    ByteWriter w;
    w.reserve(wire_size());
    w.u8(static_cast<std::uint8_t>(WireKind::kOrder));
    w.u64(seq);
    w.bytes(input.encode());
    return w.take();
}

Result<FsOrder> FsOrder::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        if (r.u8() != static_cast<std::uint8_t>(WireKind::kOrder)) {
            return Result<FsOrder>::err("not an FsOrder");
        }
        FsOrder order;
        order.seq = r.u64();
        const Bytes inner = r.bytes();
        auto input = FsInput::decode(inner);
        if (!input.has_value()) return Result<FsOrder>::err(input.error().message);
        order.input = std::move(input).value();
        if (!r.done()) return Result<FsOrder>::err("trailing bytes");
        return order;
    } catch (const std::out_of_range&) {
        return Result<FsOrder>::err("truncated FsOrder");
    }
}

// --- FsOutput ----------------------------------------------------------------

std::size_t FsOutput::wire_size() const {
    std::size_t size = 1 + (4 + source_fs.size()) + 8 + 4 + 4;
    for (const auto& d : dests) {
        size += 1 + (4 + d.fs_name.size()) + (4 + 4 + 4 + d.ref.key.size());
    }
    return size + (4 + operation.size()) + (4 + body.size());
}

Bytes FsOutput::encode() const {
    ByteWriter w;
    w.reserve(wire_size());
    w.u8(static_cast<std::uint8_t>(WireKind::kOutput));
    w.str(source_fs);
    w.u64(input_seq);
    w.u32(out_index);
    w.u32(static_cast<std::uint32_t>(dests.size()));
    for (const auto& d : dests) {
        w.u8(d.is_fs ? 1 : 0);
        w.str(d.fs_name);
        encode_object_ref(w, d.ref);
    }
    w.str(operation);
    w.bytes(body);
    return w.take();
}

Result<FsOutput> FsOutput::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        if (r.u8() != static_cast<std::uint8_t>(WireKind::kOutput)) {
            return Result<FsOutput>::err("not an FsOutput");
        }
        FsOutput out;
        out.source_fs = r.str();
        out.input_seq = r.u64();
        out.out_index = r.u32();
        const auto dest_count = r.u32();
        if (dest_count > 4096) return Result<FsOutput>::err("implausible destination count");
        // The smallest destination encodes in 17 bytes: a hostile count
        // cannot size a reservation beyond what the frame could hold.
        if (dest_count <= r.remaining() / 17) out.dests.reserve(dest_count);
        for (std::uint32_t i = 0; i < dest_count; ++i) {
            Destination d;
            d.is_fs = r.u8() != 0;
            d.fs_name = r.str();
            d.ref = decode_object_ref(r);
            out.dests.push_back(std::move(d));
        }
        out.operation = r.str();
        out.body = r.bytes();
        if (!r.done()) return Result<FsOutput>::err("trailing bytes");
        return out;
    } catch (const std::out_of_range&) {
        return Result<FsOutput>::err("truncated FsOutput");
    }
}

// --- FsFailSignal ------------------------------------------------------------

Bytes FsFailSignal::encode() const {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(WireKind::kFailSignal));
    w.str(source_fs);
    return w.take();
}

Result<FsFailSignal> FsFailSignal::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        if (r.u8() != static_cast<std::uint8_t>(WireKind::kFailSignal)) {
            return Result<FsFailSignal>::err("not an FsFailSignal");
        }
        FsFailSignal fsig;
        fsig.source_fs = r.str();
        if (!r.done()) return Result<FsFailSignal>::err("trailing bytes");
        return fsig;
    } catch (const std::out_of_range&) {
        return Result<FsFailSignal>::err("truncated FsFailSignal");
    }
}

}  // namespace failsig::fs
