// HMAC-SHA256 (RFC 2104).
//
// Used as the fast message-authentication backend inside simulated
// deployments (where RSA's CPU cost is charged in *simulated* time via the
// cost model) while still providing real tamper detection in tests.
#pragma once

#include <array>
#include <span>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace failsig::crypto {

/// HMAC-SHA256 under one key, with the key's ipad and opad blocks absorbed
/// once at construction. Each tag copies the two saved hasher states, so it
/// costs one pass over the data plus one outer block. Thread-safe: tag() only
/// reads the saved states.
class HmacSha256 {
public:
    static constexpr std::size_t kTagSize = Sha256::kDigestSize;

    explicit HmacSha256(std::span<const std::uint8_t> key);

    [[nodiscard]] std::array<std::uint8_t, kTagSize> tag(std::span<const std::uint8_t> data) const;

private:
    Sha256 inner_;
    Sha256 outer_;
};

/// HMAC-SHA256 of `data` under `key` (32-byte tag).
Bytes hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> data);

}  // namespace failsig::crypto
