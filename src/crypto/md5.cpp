#include "crypto/md5.hpp"

#include <cmath>
#include <cstring>

namespace failsig::crypto {

namespace {

// Per-round left-rotate amounts (RFC 1321).
constexpr int kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * |sin(i + 1)|), computed once at start-up; this matches
// the RFC table and avoids transcription errors.
const std::array<std::uint32_t, 64>& k_table() {
    static const std::array<std::uint32_t, 64> table = [] {
        std::array<std::uint32_t, 64> t{};
        for (int i = 0; i < 64; ++i) {
            t[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(
                std::floor(std::abs(std::sin(static_cast<double>(i) + 1.0)) * 4294967296.0));
        }
        return t;
    }();
    return table;
}

std::uint32_t rotl(std::uint32_t x, int c) { return (x << c) | (x >> (32 - c)); }

}  // namespace

Md5::Md5() { reset(); }

void Md5::reset() {
    state_[0] = 0x67452301u;
    state_[1] = 0xefcdab89u;
    state_[2] = 0x98badcfeu;
    state_[3] = 0x10325476u;
    total_len_ = 0;
    buffer_len_ = 0;
}

void Md5::update(std::span<const std::uint8_t> data) {
    total_len_ += data.size();
    std::size_t offset = 0;
    if (buffer_len_ > 0) {
        const std::size_t need = 64 - buffer_len_;
        const std::size_t take = std::min(need, data.size());
        std::memcpy(buffer_ + buffer_len_, data.data(), take);
        buffer_len_ += take;
        offset = take;
        if (buffer_len_ == 64) {
            process_block(buffer_);
            buffer_len_ = 0;
        }
    }
    while (offset + 64 <= data.size()) {
        process_block(data.data() + offset);
        offset += 64;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_, data.data() + offset, data.size() - offset);
        buffer_len_ = data.size() - offset;
    }
}

std::array<std::uint8_t, Md5::kDigestSize> Md5::finish() {
    constexpr std::size_t kLengthAt = 56;
    const std::uint64_t bit_len = total_len_ * 8;
    buffer_[buffer_len_++] = 0x80;
    if (buffer_len_ > kLengthAt) {
        std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
        process_block(buffer_);
        buffer_len_ = 0;
    }
    std::memset(buffer_ + buffer_len_, 0, kLengthAt - buffer_len_);
    for (int i = 0; i < 8; ++i) {
        buffer_[kLengthAt + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(bit_len >> (8 * i));  // little-endian
    }
    process_block(buffer_);
    buffer_len_ = 0;

    std::array<std::uint8_t, kDigestSize> out{};
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            out[static_cast<std::size_t>(i * 4 + j)] =
                static_cast<std::uint8_t>(state_[i] >> (8 * j));
        }
    }
    return out;
}

void Md5::process_block(const std::uint8_t* block) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
        m[i] = static_cast<std::uint32_t>(block[i * 4]) |
               (static_cast<std::uint32_t>(block[i * 4 + 1]) << 8) |
               (static_cast<std::uint32_t>(block[i * 4 + 2]) << 16) |
               (static_cast<std::uint32_t>(block[i * 4 + 3]) << 24);
    }

    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    const auto& k = k_table();

    for (int i = 0; i < 64; ++i) {
        std::uint32_t f;
        int g;
        if (i < 16) {
            f = (b & c) | (~b & d);
            g = i;
        } else if (i < 32) {
            f = (d & b) | (~d & c);
            g = (5 * i + 1) % 16;
        } else if (i < 48) {
            f = b ^ c ^ d;
            g = (3 * i + 5) % 16;
        } else {
            f = c ^ (b | ~d);
            g = (7 * i) % 16;
        }
        const std::uint32_t tmp = d;
        d = c;
        c = b;
        b = b + rotl(a + f + k[static_cast<std::size_t>(i)] + m[g], kShift[i]);
        a = tmp;
    }

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
}

std::array<std::uint8_t, Md5::kDigestSize> Md5::hash(std::span<const std::uint8_t> data) {
    Md5 h;
    h.update(data);
    return h.finish();
}

Bytes md5(std::span<const std::uint8_t> data) {
    const auto d = Md5::hash(data);
    return Bytes(d.begin(), d.end());
}

}  // namespace failsig::crypto
