// Byte-buffer utilities: the wire currency of the whole system.
//
// All protocol messages, signatures and marshalled values are ultimately
// `Bytes`. A small `ByteWriter`/`ByteReader` pair provides bounds-checked
// little-endian primitive encoding used by the CDR-style marshaller and by
// every protocol codec.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace failsig {

using Bytes = std::vector<std::uint8_t>;

/// Renders `data` as lowercase hex.
std::string to_hex(std::span<const std::uint8_t> data);

/// Parses lowercase/uppercase hex; throws std::invalid_argument on bad input.
Bytes from_hex(std::string_view hex);

/// Converts a string to bytes (no terminator).
Bytes bytes_of(std::string_view s);

/// Converts bytes to a std::string (may contain NULs).
std::string string_of(std::span<const std::uint8_t> data);

/// Constant-time equality: avoids leaking match length via timing.
bool constant_time_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

/// 64-bit FNV-1a: the obs span key and the explorer's trace hash.
std::uint64_t fnv1a(std::span<const std::uint8_t> data);

/// Appends little-endian encoded primitives to a byte buffer.
class ByteWriter {
public:
    ByteWriter() = default;
    explicit ByteWriter(Bytes initial) : buf_(std::move(initial)) {}

    /// Preallocates for `n` total bytes — hot encoders pair this with a
    /// wire_size() estimate so a message marshals with one allocation.
    void reserve(std::size_t n) { buf_.reserve(n); }

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { put_le(v); }
    void u32(std::uint32_t v) { put_le(v); }
    void u64(std::uint64_t v) { put_le(v); }
    void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
    void f64(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        put_le(bits);
    }

    /// Length-prefixed (u32) raw bytes.
    void bytes(std::span<const std::uint8_t> data) {
        u32(static_cast<std::uint32_t>(data.size()));
        raw(data);
    }

    /// Length-prefixed (u32) string.
    void str(std::string_view s) {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /// Raw bytes, no length prefix.
    void raw(std::span<const std::uint8_t> data) {
        buf_.insert(buf_.end(), data.begin(), data.end());
    }

    [[nodiscard]] const Bytes& view() const { return buf_; }
    [[nodiscard]] Bytes take() { return std::move(buf_); }
    [[nodiscard]] std::size_t size() const { return buf_.size(); }

private:
    template <typename T>
    void put_le(T v) {
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    Bytes buf_;
};

/// Bounds-checked reader over a byte buffer; throws std::out_of_range on
/// truncated input so malformed wire data can never read past the end.
class ByteReader {
public:
    explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t u8() { return take(1)[0]; }
    std::uint16_t u16() { return get_le<std::uint16_t>(); }
    std::uint32_t u32() { return get_le<std::uint32_t>(); }
    std::uint64_t u64() { return get_le<std::uint64_t>(); }
    std::int64_t i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }
    double f64() {
        const std::uint64_t bits = get_le<std::uint64_t>();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    Bytes bytes() {
        const auto n = u32();
        const auto part = take(n);
        return Bytes(part.begin(), part.end());
    }

    /// Zero-copy variant of bytes(): a view into the underlying buffer for
    /// callers that do not need ownership. Valid only while the buffer the
    /// reader was constructed over stays alive.
    std::span<const std::uint8_t> bytes_view() {
        const auto n = u32();
        return take(n);
    }

    std::string str() {
        const auto n = u32();
        const auto part = take(n);
        return std::string(part.begin(), part.end());
    }

    /// Remaining unread bytes.
    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
    [[nodiscard]] bool done() const { return remaining() == 0; }

    /// Reads the rest of the buffer.
    Bytes rest() {
        const auto part = take(remaining());
        return Bytes(part.begin(), part.end());
    }

private:
    std::span<const std::uint8_t> take(std::size_t n) {
        if (n > remaining()) {
            throw std::out_of_range("ByteReader: truncated input");
        }
        auto part = data_.subspan(pos_, n);
        pos_ += n;
        return part;
    }

    template <typename T>
    T get_le() {
        auto part = take(sizeof(T));
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            v |= static_cast<T>(static_cast<T>(part[i]) << (8 * i));
        }
        return v;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_{0};
};

}  // namespace failsig
