#include "newtop/wire.hpp"

namespace failsig::newtop {

std::size_t GcMessage::wire_size() const {
    return 1 + 4 + 8 + 1 + 8 + 8 + (4 + payload.size()) + 4 + 8 * vector_clock.size() + 8 +
           4 + 8 + 4 + 4 * view_members.size();
}

Bytes GcMessage::encode() const {
    ByteWriter w;
    w.reserve(wire_size());
    w.u8(static_cast<std::uint8_t>(kind));
    w.u32(sender);
    w.u64(stream_seq);
    w.u8(static_cast<std::uint8_t>(service));
    w.u64(sender_seq);
    w.u64(lamport_ts);
    w.bytes(payload);
    w.u32(static_cast<std::uint32_t>(vector_clock.size()));
    for (const auto v : vector_clock) w.u64(v);
    w.u64(global_seq);
    w.u32(origin);
    w.u64(view_id);
    w.u32(static_cast<std::uint32_t>(view_members.size()));
    for (const auto m : view_members) w.u32(m);
    return w.take();
}

Result<GcMessage> GcMessage::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        GcMessage m;
        const auto kind_raw = r.u8();
        if (kind_raw < 1 || kind_raw > 10 || kind_raw == 5 || kind_raw == 6) {
            return Result<GcMessage>::err("bad GcKind");
        }
        m.kind = static_cast<GcKind>(kind_raw);
        m.sender = r.u32();
        m.stream_seq = r.u64();
        const auto svc_raw = r.u8();
        if (svc_raw < 1 || svc_raw > 5) return Result<GcMessage>::err("bad ServiceType");
        m.service = static_cast<ServiceType>(svc_raw);
        m.sender_seq = r.u64();
        m.lamport_ts = r.u64();
        m.payload = r.bytes();
        const auto vc_size = r.u32();
        if (vc_size > 4096) return Result<GcMessage>::err("implausible vector clock");
        m.vector_clock.reserve(vc_size);
        for (std::uint32_t i = 0; i < vc_size; ++i) m.vector_clock.push_back(r.u64());
        m.global_seq = r.u64();
        m.origin = r.u32();
        m.view_id = r.u64();
        const auto vm_size = r.u32();
        if (vm_size > 4096) return Result<GcMessage>::err("implausible view size");
        m.view_members.reserve(vm_size);
        for (std::uint32_t i = 0; i < vm_size; ++i) m.view_members.push_back(r.u32());
        if (!r.done()) return Result<GcMessage>::err("trailing bytes in GcMessage");
        return m;
    } catch (const std::out_of_range&) {
        return Result<GcMessage>::err("truncated GcMessage");
    }
}

std::size_t FlushState::wire_size() const {
    std::size_t size = 8 + 4 + 8 + 4;
    for (const auto& entry : entries) size += 4 + entry.wire_size();
    return size;
}

Bytes FlushState::encode() const {
    ByteWriter w;
    w.reserve(wire_size());
    w.u64(sym_watermark_ts);
    w.u32(sym_watermark_sender);
    w.u64(asym_delivered);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& entry : entries) w.bytes(entry.encode());
    return w.take();
}

Result<FlushState> FlushState::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        FlushState st;
        st.sym_watermark_ts = r.u64();
        st.sym_watermark_sender = r.u32();
        st.asym_delivered = r.u64();
        const auto count = r.u32();
        // A flush cut spans one view epoch's in-flight window; anything past
        // this bound is a corrupt frame, not a bigger group.
        if (count > 65536) return Result<FlushState>::err("implausible flush entry count");
        st.entries.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            auto inner = GcMessage::decode(r.bytes());
            if (!inner.has_value()) {
                return Result<FlushState>::err("bad flush entry: " + inner.error().message);
            }
            st.entries.push_back(std::move(inner).value());
        }
        if (!r.done()) return Result<FlushState>::err("trailing bytes in FlushState");
        return st;
    } catch (const std::out_of_range&) {
        return Result<FlushState>::err("truncated FlushState");
    }
}

std::size_t JoinGrant::wire_size() const {
    return 7 * 8 + 4 + 4 + 8 * vector_clock.size() + 4 + app_snapshot.size();
}

Bytes JoinGrant::encode() const {
    ByteWriter w;
    w.reserve(wire_size());
    w.u64(lamport);
    w.u64(sym_stream_out);
    w.u64(rel_seq);
    w.u64(causal_out);
    w.u64(sym_watermark_ts);
    w.u32(sym_watermark_sender);
    w.u64(asym_next_deliver);
    w.u64(asym_next_assign);
    w.u32(static_cast<std::uint32_t>(vector_clock.size()));
    for (const auto v : vector_clock) w.u64(v);
    w.bytes(app_snapshot);
    return w.take();
}

Result<JoinGrant> JoinGrant::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        JoinGrant g;
        g.lamport = r.u64();
        g.sym_stream_out = r.u64();
        g.rel_seq = r.u64();
        g.causal_out = r.u64();
        g.sym_watermark_ts = r.u64();
        g.sym_watermark_sender = r.u32();
        g.asym_next_deliver = r.u64();
        g.asym_next_assign = r.u64();
        if (g.asym_next_deliver == 0 || g.asym_next_assign == 0) {
            return Result<JoinGrant>::err("asym positions are 1-based");
        }
        const auto vc_size = r.u32();
        if (vc_size > 4096) return Result<JoinGrant>::err("implausible vector clock");
        g.vector_clock.reserve(vc_size);
        for (std::uint32_t i = 0; i < vc_size; ++i) g.vector_clock.push_back(r.u64());
        g.app_snapshot = r.bytes();
        if (!r.done()) return Result<JoinGrant>::err("trailing bytes in JoinGrant");
        return g;
    } catch (const std::out_of_range&) {
        return Result<JoinGrant>::err("truncated JoinGrant");
    }
}

std::size_t MulticastRequest::wire_size() const { return 1 + 4 + payload.size(); }

Bytes MulticastRequest::encode() const {
    ByteWriter w;
    w.reserve(wire_size());
    w.u8(static_cast<std::uint8_t>(service));
    w.bytes(payload);
    return w.take();
}

Result<MulticastRequest> MulticastRequest::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        MulticastRequest m;
        const auto svc_raw = r.u8();
        if (svc_raw < 1 || svc_raw > 5) return Result<MulticastRequest>::err("bad ServiceType");
        m.service = static_cast<ServiceType>(svc_raw);
        m.payload = r.bytes();
        if (!r.done()) return Result<MulticastRequest>::err("trailing bytes");
        return m;
    } catch (const std::out_of_range&) {
        return Result<MulticastRequest>::err("truncated MulticastRequest");
    }
}

std::size_t Delivery::wire_size() const {
    return 1 + 8 + 4 + 1 + 8 + (4 + payload.size()) + 8 + 4 + 4 * view.members.size();
}

Bytes Delivery::encode() const {
    ByteWriter w;
    w.reserve(wire_size());
    w.u8(static_cast<std::uint8_t>(kind));
    w.u64(delivery_seq);
    w.u32(sender);
    w.u8(static_cast<std::uint8_t>(service));
    w.u64(sender_seq);
    w.bytes(payload);
    w.u64(view.view_id);
    w.u32(static_cast<std::uint32_t>(view.members.size()));
    for (const auto m : view.members) w.u32(m);
    return w.take();
}

Result<Delivery> Delivery::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        Delivery d;
        const auto kind_raw = r.u8();
        if (kind_raw < 1 || kind_raw > 2) return Result<Delivery>::err("bad Delivery kind");
        d.kind = static_cast<Kind>(kind_raw);
        d.delivery_seq = r.u64();
        d.sender = r.u32();
        const auto svc_raw = r.u8();
        if (svc_raw < 1 || svc_raw > 5) return Result<Delivery>::err("bad ServiceType");
        d.service = static_cast<ServiceType>(svc_raw);
        d.sender_seq = r.u64();
        d.payload = r.bytes();
        d.view.view_id = r.u64();
        const auto vm_size = r.u32();
        if (vm_size > 4096) return Result<Delivery>::err("implausible view size");
        for (std::uint32_t i = 0; i < vm_size; ++i) d.view.members.push_back(r.u32());
        if (!r.done()) return Result<Delivery>::err("trailing bytes");
        return d;
    } catch (const std::out_of_range&) {
        return Result<Delivery>::err("truncated Delivery");
    }
}

}  // namespace failsig::newtop
