// Length-prefixed wire framing for the TCP transport.
//
// A frame is one transport-level message:
//
//     [u32 body_len][body]
//     body = [endpoint src][endpoint dst][payload bytes...]
//     endpoint = [u32 node][u32 port]
//
// all little-endian via the existing ByteWriter/ByteReader codecs. The
// length prefix is the only thing a byte-stream peer must trust before
// allocating, so `FrameReader` validates it against `kMaxFrameBytes`
// before buffering — a hostile 0xffffffff length is a protocol error, not
// a 4 GiB allocation. The fuzz corpus in tests/test_tcp_frame.cpp feeds
// garbage, truncations and hostile lengths through this exact path.
#pragma once

#include <cstddef>
#include <optional>

#include "common/bytes.hpp"
#include "common/payload.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace failsig::net {

/// A decoded frame: the transport header plus the opaque payload bytes.
struct Frame {
    Endpoint src;
    Endpoint dst;
    Bytes payload;
};

/// Upper bound on one frame's body. Generous (the biggest legitimate frame
/// is a ~1 MiB bench payload plus headers); anything larger is hostile or
/// corrupt and kills the connection.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Wire bytes of the endpoint header inside a frame body.
inline constexpr std::size_t kEndpointWireBytes = 8;

void encode_endpoint(ByteWriter& w, Endpoint e);
Endpoint decode_endpoint(ByteReader& r);

/// Encodes one frame, length prefix included; the payload's prefix and body
/// are written straight into the frame.
Bytes encode_frame(Endpoint src, Endpoint dst, const Payload& payload);

/// Decodes one complete frame body (the bytes after the length prefix).
Result<Frame> decode_frame_body(std::span<const std::uint8_t> body);

/// Incremental frame parser over an arbitrary-chunked byte stream (what a
/// socket read loop produces). Feed bytes, then pop frames until empty.
/// Once poisoned (hostile length / undecodable body) every later call
/// reports the error: a framing error on a TCP stream is unrecoverable
/// because resynchronization is impossible.
class FrameReader {
public:
    void feed(std::span<const std::uint8_t> data);

    /// Returns the next complete frame, std::nullopt when more bytes are
    /// needed, or sets `error()` and returns std::nullopt on a poisoned
    /// stream.
    std::optional<Frame> next();

    [[nodiscard]] bool failed() const { return !error_.empty(); }
    [[nodiscard]] const std::string& error() const { return error_; }

    /// Bytes buffered but not yet consumed (diagnostic).
    [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

private:
    Bytes buf_;
    std::size_t pos_{0};
    std::string error_;
};

}  // namespace failsig::net
