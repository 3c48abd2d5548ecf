// Ref-counted immutable message payload: the zero-copy currency of the
// message plane.
//
// A Payload is a view over a shared, immutable byte buffer, optionally led
// by a small owned *prefix* (a per-target header). A multicast encodes its
// body once; every copy of the Payload — the n in-flight messages of a
// fan-out, the scheduler lambda, the delivery handler — shares that one
// buffer and only the few header bytes differ per target. This is what
// turns the O(n) per-receiver re-marshal of the old plane into O(1)
// encodes per logical message (see net::SimNetwork's copy counters).
//
// Every body buffer records which counter last counted it, so a transport's
// copy counters can tell "same buffer, already counted" from "freshly
// encoded" without remembering every body (or relying on pointer identity,
// which the allocator recycles).
//
// Mutation is copy-on-write: `mutable_bytes()` flattens prefix + body into
// a private buffer, so fault injectors (net::Corruptor) can still flip bits
// without perturbing the other receivers' shared copy.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"

namespace failsig {

class Payload {
public:
    Payload() = default;
    /// Wraps `data` as a single shared segment (implicit so existing
    /// Bytes-valued send() call sites keep working).
    Payload(Bytes data)  // NOLINT(google-explicit-constructor)
        : body_(data.empty() ? nullptr : std::make_shared<Body>(std::move(data))) {}

    /// A per-target header in front of a shared body: the header bytes are
    /// owned (tiny, per-target), the body stays shared with every sibling.
    /// A body that already carries a prefix is flattened first, so layered
    /// headers concatenate instead of silently dropping the inner one.
    static Payload prefixed(Bytes header, Payload body) {
        Payload p = std::move(body);
        if (p.has_prefix()) p = Payload{p.to_bytes()};
        p.prefix_ = std::move(header);
        return p;
    }

    [[nodiscard]] std::size_t size() const {
        return prefix_.size() + (body_ ? body_->data.size() : 0);
    }
    [[nodiscard]] bool empty() const { return size() == 0; }

    [[nodiscard]] bool has_prefix() const { return !prefix_.empty(); }
    [[nodiscard]] std::span<const std::uint8_t> prefix() const { return prefix_; }
    [[nodiscard]] std::span<const std::uint8_t> body() const {
        return body_ ? std::span<const std::uint8_t>(body_->data)
                     : std::span<const std::uint8_t>{};
    }

    /// Whole-payload view; only valid when there is no prefix segment
    /// (decoders that need the full wire image use span() or to_bytes()).
    [[nodiscard]] std::span<const std::uint8_t> span() const {
        if (has_prefix()) {
            throw std::logic_error("Payload::span: prefixed payload is not contiguous");
        }
        return body();
    }
    /// Implicit view for span-taking decoders (SignedEnvelope::decode &c).
    operator std::span<const std::uint8_t>() const {  // NOLINT(google-explicit-constructor)
        return span();
    }

    [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
        return i < prefix_.size() ? prefix_[i] : body_->data[i - prefix_.size()];
    }

    /// Materializes prefix + body into one owned buffer (a real copy).
    [[nodiscard]] Bytes to_bytes() const {
        Bytes out;
        out.reserve(size());
        out.insert(out.end(), prefix_.begin(), prefix_.end());
        if (body_) out.insert(out.end(), body_->data.begin(), body_->data.end());
        return out;
    }

    /// Copy-on-write escape hatch for fault injection: detaches this Payload
    /// from its shared buffer (flattening any prefix) and returns a mutable
    /// reference private to this instance.
    [[nodiscard]] Bytes& mutable_bytes() {
        if (has_prefix() || !body_ || body_.use_count() > 1) {
            body_ = std::make_shared<Body>(to_bytes());
            prefix_.clear();
        }
        return body_->data;
    }

    /// Identity of the shared body buffer (pointer; null when empty).
    [[nodiscard]] const void* body_id() const { return body_.get(); }
    /// A process-unique, nonzero counter token. A counter that draws a fresh
    /// one whenever it resets counts each body once per reset.
    [[nodiscard]] static std::uint64_t fresh_count_token() {
        static std::atomic<std::uint64_t> counter{0};
        return counter.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    /// True when the body was not last counted under `token` (never for an
    /// empty payload); the body is then marked as counted under `token`.
    /// A body remembers only the last counter, so two counters that send
    /// one body in turn would each count it again; a deployment sends
    /// through exactly one transport.
    [[nodiscard]] bool count_body(std::uint64_t token) const {
        return body_ && body_->counted_by.exchange(token, std::memory_order_relaxed) != token;
    }
    /// How many Payloads share the body buffer (1 when sole owner, 0 empty).
    [[nodiscard]] long body_use_count() const { return body_ ? body_.use_count() : 0; }

    friend bool operator==(const Payload& a, const Payload& b) {
        if (a.size() != b.size()) return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] != b[i]) return false;
        }
        return true;
    }

private:
    struct Body {
        explicit Body(Bytes d) : data(std::move(d)) {}
        Bytes data;
        /// Token of the counter that last counted this body (0: none).
        std::atomic<std::uint64_t> counted_by{0};
    };

    Bytes prefix_;
    std::shared_ptr<Body> body_;
};

}  // namespace failsig
