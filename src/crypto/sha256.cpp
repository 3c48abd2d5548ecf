#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

// The SHA-NI kernel needs a compiler whose __builtin_cpu_supports knows "sha".
#if defined(__x86_64__) && (defined(__clang__) ? __clang_major__ >= 18 : __GNUC__ >= 12)
#define FAILSIG_SHA256_X86 1
#include <immintrin.h>
#else
#define FAILSIG_SHA256_X86 0
#endif

namespace failsig::crypto {

namespace {

// Round constants: the first 32 bits of the fractional parts of the cube
// roots of the first 64 primes (FIPS 180-4 §4.2.2). Pinned by the FIPS test
// vectors in the test suite.
alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

// Initial state: the first 32 bits of the fractional parts of the square
// roots of the first 8 primes (FIPS 180-4 §5.3.3).
constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t load_be32(const std::uint8_t* p) {
    return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

using BlocksFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

#if FAILSIG_SHA256_X86
// Intel SHA extensions. The instructions keep the eight state words as two
// vectors, ABEF and CDGH; each sha256rnds2 does two rounds, and
// sha256msg1/sha256msg2 compute four message-schedule words at a time.
__attribute__((target("sha,sse4.1"))) void blocks_shani(std::uint32_t* state,
                                                        const std::uint8_t* data,
                                                        std::size_t n) {
    const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)),
                                    0xB1);  // CDAB
    __m128i state1 = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);  // EFGH
    __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);                          // ABEF
    state1 = _mm_blend_epi16(state1, tmp, 0xF0);                               // CDGH

    for (; n > 0; --n, data += Sha256::kBlockSize) {
        const __m128i abef = state0;
        const __m128i cdgh = state1;
        // w[i % 4] holds schedule words 4i..4i+3. Word group i+1 is finished
        // before group i-1 is overwritten by its sha256msg1 half.
        __m128i w[4];
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i) {
            if (i < 4) {
                w[i] = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), byte_swap);
            }
            const __m128i msg = _mm_add_epi32(
                w[i & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * i])));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
            if (i >= 3 && i < 15) {
                __m128i& next = w[(i + 1) & 3];
                next = _mm_add_epi32(next, _mm_alignr_epi8(w[i & 3], w[(i - 1) & 3], 4));
                next = _mm_sha256msg2_epu32(next, w[i & 3]);
            }
            if (i >= 1 && i < 13) {
                w[(i - 1) & 3] = _mm_sha256msg1_epu32(w[(i - 1) & 3], w[i & 3]);
            }
        }
        state0 = _mm_add_epi32(state0, abef);
        state1 = _mm_add_epi32(state1, cdgh);
    }

    tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
    state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
    state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
    state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}
#endif

BlocksFn select_kernel() {
#if FAILSIG_SHA256_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) return blocks_shani;
#endif
    return detail::sha256_blocks_portable;
}

// Constant-initialised to the portable kernel, so a digest taken by another
// translation unit's static initialiser before this one runs is still
// correct; replaced once during static initialisation, before any thread.
BlocksFn g_blocks = detail::sha256_blocks_portable;
[[maybe_unused]] const bool g_kernel_selected = (g_blocks = select_kernel(), true);

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data, std::size_t n) {
    for (; n > 0; --n, data += Sha256::kBlockSize) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
#pragma GCC unroll 8
        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
            const std::uint32_t ch = g ^ (e & (f ^ g));  // == (e & f) ^ (~e & g)
            const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
            const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
            const std::uint32_t maj = (a & b) | (c & (a | b));  // == (a&b) ^ (a&c) ^ (b&c)
            const std::uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

}  // namespace detail

void Sha256::blocks(std::uint32_t state[8], const std::uint8_t* data, std::size_t n) {
    g_blocks(state, data, n);
}

Sha256::Sha256() { reset(); }

void Sha256::reset() {
    std::memcpy(state_, kInit, sizeof state_);
    total_len_ = 0;
    buffer_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    total_len_ += data.size();
    const std::uint8_t* p = data.data();
    std::size_t left = data.size();
    if (buffer_len_ > 0) {
        const std::size_t take = std::min(kBlockSize - buffer_len_, left);
        std::memcpy(buffer_ + buffer_len_, p, take);
        buffer_len_ += take;
        p += take;
        left -= take;
        if (buffer_len_ < kBlockSize) return;
        blocks(state_, buffer_, 1);
        buffer_len_ = 0;
    }
    if (const std::size_t whole = left / kBlockSize; whole > 0) {
        blocks(state_, p, whole);
        p += whole * kBlockSize;
        left -= whole * kBlockSize;
    }
    if (left > 0) {
        std::memcpy(buffer_, p, left);
        buffer_len_ = left;
    }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finish() {
    constexpr std::size_t kLengthAt = kBlockSize - 8;
    const std::uint64_t bit_len = total_len_ * 8;
    buffer_[buffer_len_++] = 0x80;
    if (buffer_len_ > kLengthAt) {
        std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
        blocks(state_, buffer_, 1);
        buffer_len_ = 0;
    }
    std::memset(buffer_ + buffer_len_, 0, kLengthAt - buffer_len_);
    for (int i = 0; i < 8; ++i) {
        buffer_[kLengthAt + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));  // big-endian
    }
    blocks(state_, buffer_, 1);
    buffer_len_ = 0;

    std::array<std::uint8_t, kDigestSize> out{};
    for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 4; ++j) {
            out[static_cast<std::size_t>(i * 4 + j)] =
                static_cast<std::uint8_t>(state_[i] >> (8 * (3 - j)));
        }
    }
    return out;
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::hash(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
}

Bytes sha256(std::span<const std::uint8_t> data) {
    const auto d = Sha256::hash(data);
    return Bytes(d.begin(), d.end());
}

}  // namespace failsig::crypto
