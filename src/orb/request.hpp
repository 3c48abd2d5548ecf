// ORB request model: object references, service contexts and the wire codec.
//
// An ObjectRef is an IOR-lite: the endpoint the object's ORB listens on plus
// the object key. Service contexts are named byte blobs piggybacked on a
// request (CORBA's out-of-band metadata channel): the ORB carries them
// opaquely on the wire and charges their bytes like the arguments'.
//
// The NewTOP Invocation service "marshals a multicast message ... into a
// generic CORBA type any" (paper §3). Every operation in this system takes
// one marshalled byte string, so a request's argument is exactly that: the
// wire frames it the way a CORBA any of kind "bytes" is framed (tag 6).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/bytes.hpp"
#include "common/payload.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace failsig::orb {

/// The argument type of every request. The name stays only because
/// bench/e2e/driver.cpp still spells it; everything else writes Bytes.
using Any = Bytes;

/// Location-independent object reference.
struct ObjectRef {
    Endpoint endpoint;
    std::string key;

    friend auto operator<=>(const ObjectRef&, const ObjectRef&) = default;
};

/// Named out-of-band blobs attached to a request (CORBA service contexts).
using ServiceContexts = std::map<std::string, Bytes>;

/// A oneway invocation in flight.
struct Request {
    std::string object_key;    ///< target object on the receiving ORB
    std::string operation;     ///< operation name
    Bytes args;                ///< the marshalled argument
    ObjectRef reply_to;        ///< where responses should be directed (optional)
    std::uint64_t request_id{0};
    ServiceContexts contexts;  ///< out-of-band metadata, carried opaquely
    Endpoint sender;           ///< filled in by the receiving ORB

    // The wire image is [header][body]: the header is the length-prefixed
    // object key (the only per-target field), the body is everything else.
    // A multicast encodes the body once and shares it across all n targets
    // (see addressed()); encode() is the concatenation.
    [[nodiscard]] Bytes encode() const;
    /// The per-target header for `key` (a length-prefixed string).
    static Bytes encode_key(const std::string& key);
    /// Everything after the object key, shared across a fan-out.
    [[nodiscard]] Bytes encode_body() const;
    /// The wire image of a shared body sent to the object `key`: its key
    /// header in front of the body, which stays shared with every sibling.
    static Payload addressed(const std::string& key, const Payload& body);

    static Result<Request> decode(std::span<const std::uint8_t> data);
    /// Segment-aware decode: reads the object key from the payload's header
    /// prefix (when present) and the body from the shared segment, without
    /// materializing a contiguous copy. (Named distinctly so Bytes callers
    /// of decode() never face an implicit-conversion ambiguity.)
    static Result<Request> decode_message(const Payload& payload);

    /// Payload size proxy used by the cost model (args + contexts).
    [[nodiscard]] std::size_t wire_size() const;
    /// wire_size() minus the object key — per-target costs add the actual
    /// target key length back on.
    [[nodiscard]] std::size_t wire_size_sans_key() const;
};

inline std::string to_string(const ObjectRef& ref) {
    return to_string(ref.endpoint) + "/" + ref.key;
}

}  // namespace failsig::orb
