#include "common/bytes.hpp"

namespace failsig {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::invalid_argument("from_hex: invalid hex digit");
}
}  // namespace

std::string to_hex(std::span<const std::uint8_t> data) {
    std::string out;
    out.reserve(data.size() * 2);
    for (auto b : data) {
        out.push_back(kHexDigits[b >> 4]);
        out.push_back(kHexDigits[b & 0x0f]);
    }
    return out;
}

Bytes from_hex(std::string_view hex) {
    if (hex.size() % 2 != 0) {
        throw std::invalid_argument("from_hex: odd length");
    }
    Bytes out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>((hex_value(hex[i]) << 4) | hex_value(hex[i + 1])));
    }
    return out;
}

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string string_of(std::span<const std::uint8_t> data) {
    return std::string(data.begin(), data.end());
}

bool constant_time_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
    if (a.size() != b.size()) return false;
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    return acc == 0;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : data) {
        hash ^= b;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

}  // namespace failsig
