#include "net/frame.hpp"

namespace failsig::net {

void encode_endpoint(ByteWriter& w, Endpoint e) {
    w.u32(e.node.value);
    w.u32(e.port.value);
}

Endpoint decode_endpoint(ByteReader& r) {
    Endpoint e;
    e.node = NodeId{r.u32()};
    e.port = PortId{r.u32()};
    return e;
}

Bytes encode_frame(Endpoint src, Endpoint dst, const Payload& payload) {
    ByteWriter w;
    w.reserve(4 + 2 * kEndpointWireBytes + payload.size());
    w.u32(static_cast<std::uint32_t>(2 * kEndpointWireBytes + payload.size()));
    encode_endpoint(w, src);
    encode_endpoint(w, dst);
    w.raw(payload.prefix());
    w.raw(payload.body());
    return w.take();
}

Result<Frame> decode_frame_body(std::span<const std::uint8_t> body) {
    try {
        ByteReader r(body);
        Frame f;
        f.src = decode_endpoint(r);
        f.dst = decode_endpoint(r);
        f.payload = r.rest();
        return f;
    } catch (const std::out_of_range&) {
        return Result<Frame>::err("frame: truncated body");
    }
}

void FrameReader::feed(std::span<const std::uint8_t> data) {
    if (failed()) return;
    // Compact lazily: drop consumed prefix once it dominates the buffer so
    // a long-lived connection never accretes history.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<Frame> FrameReader::next() {
    if (failed()) return std::nullopt;
    if (buffered() < 4) return std::nullopt;
    const std::span<const std::uint8_t> buffered_bytes(buf_);
    ByteReader prefix(buffered_bytes.subspan(pos_, 4));
    const std::uint32_t len = prefix.u32();
    if (len < 2 * kEndpointWireBytes || len > kMaxFrameBytes) {
        error_ = "frame: hostile length " + std::to_string(len);
        return std::nullopt;
    }
    if (buffered() < 4 + static_cast<std::size_t>(len)) return std::nullopt;
    auto body = std::span(buf_).subspan(pos_ + 4, len);
    auto decoded = decode_frame_body(body);
    if (!decoded.has_value()) {
        error_ = decoded.error().message;
        return std::nullopt;
    }
    pos_ += 4 + static_cast<std::size_t>(len);
    return std::move(decoded).value();
}

}  // namespace failsig::net
