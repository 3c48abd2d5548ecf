// SHA-256 (FIPS 180-4). Modern digest used by HMAC authentication and as the
// recommended alternative to the paper's MD5.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace failsig::crypto {

/// Incremental SHA-256 hasher. Copyable: HMAC keeps hashers that have
/// absorbed a key's pad blocks and copies them for every tag.
class Sha256 {
public:
    static constexpr std::size_t kDigestSize = 32;
    static constexpr std::size_t kBlockSize = 64;

    Sha256();

    void update(std::span<const std::uint8_t> data);
    std::array<std::uint8_t, kDigestSize> finish();
    void reset();

    static std::array<std::uint8_t, kDigestSize> hash(std::span<const std::uint8_t> data);

    /// Compresses `n` consecutive 64-byte blocks at `data` into `state`. On
    /// x86-64 CPUs with the SHA extensions this runs the SHA-NI kernel, chosen
    /// once at start-up; everywhere else it runs detail::sha256_blocks_portable.
    static void blocks(std::uint32_t state[8], const std::uint8_t* data, std::size_t n);

private:
    std::uint32_t state_[8];
    std::uint64_t total_len_{0};
    std::uint8_t buffer_[kBlockSize];
    std::size_t buffer_len_{0};
};

/// One-shot SHA-256 digest as Bytes.
Bytes sha256(std::span<const std::uint8_t> data);

namespace detail {

/// The portable compression kernel: runs on every CPU without the SHA
/// extensions and is the oracle the dispatched kernel is tested against.
void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data, std::size_t n);

}  // namespace detail

}  // namespace failsig::crypto
