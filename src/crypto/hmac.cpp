#include "crypto/hmac.hpp"

#include <algorithm>

namespace failsig::crypto {

namespace {

constexpr std::size_t kBlock = 64;  // SHA-256's block size

/// Absorbs key ⊕ ipad into `inner` and key ⊕ opad into `outer` (RFC 2104);
/// a key longer than a block is hashed first.
void absorb_pads(std::span<const std::uint8_t> key, Sha256& inner, Sha256& outer) {
    std::uint8_t k[kBlock] = {};
    if (key.size() > kBlock) {
        const auto kd = Sha256::hash(key);
        std::copy(kd.begin(), kd.end(), k);
    } else {
        std::copy(key.begin(), key.end(), k);
    }
    std::uint8_t pad[kBlock];
    for (std::size_t i = 0; i < kBlock; ++i) pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    inner.update(pad);
    for (std::size_t i = 0; i < kBlock; ++i) pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
    outer.update(pad);
}

/// Finishes a tag from copies of the pad-absorbed hashers.
auto finish_tag(Sha256 inner, Sha256 outer, std::span<const std::uint8_t> data) {
    inner.update(data);
    const auto inner_digest = inner.finish();
    outer.update(inner_digest);
    return outer.finish();
}

}  // namespace

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) { absorb_pads(key, inner_, outer_); }

std::array<std::uint8_t, HmacSha256::kTagSize> HmacSha256::tag(
    std::span<const std::uint8_t> data) const {
    return finish_tag(inner_, outer_, data);
}

Bytes hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> data) {
    const auto t = HmacSha256(key).tag(data);
    return Bytes(t.begin(), t.end());
}

}  // namespace failsig::crypto
