#include "orb/request.hpp"

namespace failsig::orb {

namespace {

/// The argument's framing inside the body: a blob length, then the CORBA
/// any tag of kind "bytes" and the length-prefixed byte string.
constexpr std::uint8_t kBytesTag = 6;
constexpr std::size_t kArgsFraming = 1 + 4;

void encode_body_into(ByteWriter& w, const Request& req) {
    w.str(req.operation);
    w.u32(static_cast<std::uint32_t>(kArgsFraming + req.args.size()));
    w.u8(kBytesTag);
    w.bytes(req.args);
    w.u32(req.reply_to.endpoint.node.value);
    w.u32(req.reply_to.endpoint.port.value);
    w.str(req.reply_to.key);
    w.u64(req.request_id);
    w.u32(static_cast<std::uint32_t>(req.contexts.size()));
    for (const auto& [name, blob] : req.contexts) {
        w.str(name);
        w.bytes(blob);
    }
}

/// Decodes everything after the object key; throws std::out_of_range on
/// truncation, returns an error message for semantic failures.
Result<Request> decode_body(ByteReader& r, Request req) {
    req.operation = r.str();
    ByteReader args(r.bytes_view());
    if (args.u8() != kBytesTag) return Result<Request>::err("bad args: not a byte string");
    req.args = args.bytes();
    if (!args.done()) return Result<Request>::err("bad args: trailing bytes");
    req.reply_to.endpoint.node.value = r.u32();
    req.reply_to.endpoint.port.value = r.u32();
    req.reply_to.key = r.str();
    req.request_id = r.u64();
    const auto n = r.u32();
    if (n > 64) return Result<Request>::err("implausible context count");
    for (std::uint32_t i = 0; i < n; ++i) {
        auto name = r.str();
        req.contexts.emplace(std::move(name), r.bytes());
    }
    if (!r.done()) return Result<Request>::err("trailing bytes in request");
    return req;
}

}  // namespace

Bytes Request::encode_key(const std::string& key) {
    ByteWriter w;
    w.reserve(4 + key.size());
    w.str(key);
    return w.take();
}

Bytes Request::encode_body() const {
    ByteWriter w;
    w.reserve(wire_size_sans_key() + 64);
    encode_body_into(w, *this);
    return w.take();
}

Payload Request::addressed(const std::string& key, const Payload& body) {
    return Payload::prefixed(encode_key(key), body);
}

Bytes Request::encode() const {
    ByteWriter w;
    w.reserve(wire_size() + 64);
    w.str(object_key);
    encode_body_into(w, *this);
    return w.take();
}

Result<Request> Request::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        Request req;
        req.object_key = r.str();
        return decode_body(r, std::move(req));
    } catch (const std::out_of_range&) {
        return Result<Request>::err("truncated request");
    }
}

Result<Request> Request::decode_message(const Payload& payload) {
    if (!payload.has_prefix()) return decode(payload.body());
    try {
        ByteReader header(payload.prefix());
        Request req;
        req.object_key = header.str();
        if (!header.done()) return Result<Request>::err("trailing bytes in request header");
        ByteReader r(payload.body());
        return decode_body(r, std::move(req));
    } catch (const std::out_of_range&) {
        return Result<Request>::err("truncated request");
    }
}

std::size_t Request::wire_size() const { return object_key.size() + wire_size_sans_key(); }

std::size_t Request::wire_size_sans_key() const {
    std::size_t size = operation.size() + kArgsFraming + args.size();
    for (const auto& [name, blob] : contexts) size += name.size() + blob.size();
    return size;
}

}  // namespace failsig::orb
