// One field walk per wire message.
//
// A protocol message states its layout once, as a static member template
//
//     template <typename IO, typename M>
//     [[gnu::always_inline]] static void fields(IO& io, M& m);
//
// that visits its members in wire order. The same walk, run over a Sizer,
// a Writer or a Reader (M is then non-const), counts, encodes or decodes the
// message; wire::size, wire::encode and wire::decode drive the three, so a
// layout, a decoder check or a nested length prefix cannot drift between
// them. The primitives a walk uses:
//
//   u8 / u32 / u64   little-endian integers (u8 also carries bool and
//                    one-byte enums)
//   bytes            u32 length + raw bytes (Bytes or std::string)
//   tag(t)           a constant kind byte the decoder insists on
//   list(v, max, what, each)
//                    u32 count + elements; a count over `max` is refused
//                    before anything is reserved, and no list reserves more
//                    elements than bytes remain
//   nested(m)        another message behind a u32 length prefix, written in
//                    place; the prefixed bytes must decode exactly
//   check(ok, what)  a decoder condition (evaluated only when reading)
//
// fields() is always_inline: the walk has to compile into straight-line
// code in encode/decode, or every message pays a call per field.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace failsig::wire {

/// A decoder check failed (bad kind, implausible count, leftover bytes).
class Malformed : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Counts the encoded size.
class Sizer {
public:
    template <typename T>
    void u8(const T&) { total_ += 1; }
    void u32(std::uint32_t) { total_ += 4; }
    void u64(std::uint64_t) { total_ += 8; }
    template <typename C>
    void bytes(const C& v) { total_ += 4 + v.size(); }
    template <typename T>
    void tag(T t) { u8(t); }
    template <typename V, typename Each>
    void list(const V& v, std::uint32_t, const char*, Each each) {
        total_ += 4;
        for (const auto& e : v) each(e);
    }
    template <typename M>
    void nested(const M& m) {
        total_ += 4;
        M::fields(*this, m);
    }
    void check(bool, const char*) {}

    [[nodiscard]] std::size_t total() const { return total_; }

private:
    std::size_t total_{0};
};

/// Exact encoded size of `m`.
template <typename M>
std::size_t size(const M& m) {
    Sizer io;
    M::fields(io, m);
    return io.total();
}

/// Appends a message's fields to a ByteWriter.
class Writer {
public:
    explicit Writer(ByteWriter& w) : w_(w) {}

    template <typename T>
    void u8(T v) {
        static_assert(sizeof(T) == 1);
        w_.u8(static_cast<std::uint8_t>(v));
    }
    void u32(std::uint32_t v) { w_.u32(v); }
    void u64(std::uint64_t v) { w_.u64(v); }
    void bytes(std::span<const std::uint8_t> v) { w_.bytes(v); }
    void bytes(std::string_view v) { w_.str(v); }
    template <typename T>
    void tag(T t) { u8(t); }
    template <typename V, typename Each>
    void list(const V& v, std::uint32_t, const char*, Each each) {
        w_.u32(static_cast<std::uint32_t>(v.size()));
        for (const auto& e : v) each(e);
    }
    template <typename M>
    void nested(const M& m) {
        w_.u32(static_cast<std::uint32_t>(wire::size(m)));
        M::fields(*this, m);
    }
    void check(bool, const char*) {}

private:
    ByteWriter& w_;
};

/// Reads a message's fields from a ByteReader. Truncation throws
/// std::out_of_range (from ByteReader), a failed check throws Malformed.
class Reader {
public:
    explicit Reader(ByteReader& r) : r_(r) {}

    template <typename T>
    void u8(T& v) {
        static_assert(sizeof(T) == 1);
        v = static_cast<T>(r_.u8());
    }
    void u32(std::uint32_t& v) { v = r_.u32(); }
    void u64(std::uint64_t& v) { v = r_.u64(); }
    template <typename C>
    void bytes(C& v) {
        const auto part = r_.bytes_view();
        v.assign(part.begin(), part.end());
    }
    template <typename T>
    void tag(T t) { check(r_.u8() == static_cast<std::uint8_t>(t), "wrong kind tag"); }
    template <typename V, typename Each>
    void list(V& v, std::uint32_t max, const char* what, Each each) {
        const std::uint32_t count = r_.u32();
        check(count <= max, what);
        v.reserve(std::min<std::size_t>(count, r_.remaining()));
        for (std::uint32_t i = 0; i < count; ++i) each(v.emplace_back());
    }
    template <typename M>
    void nested(M& m) {
        ByteReader inner(r_.bytes_view());
        Reader io(inner);
        M::fields(io, m);
        check(inner.done(), "trailing bytes in nested message");
    }
    void check(bool ok, const char* what) {
        if (!ok) throw Malformed(what);
    }

private:
    ByteReader& r_;
};

/// Encodes `m` with one allocation.
template <typename M>
Bytes encode(const M& m) {
    ByteWriter w;
    w.reserve(wire::size(m));
    Writer io(w);
    M::fields(io, m);
    return w.take();
}

/// Decodes exactly one `M` from `data`: truncation, a failed check or
/// leftover bytes is an error, never an exception.
template <typename M>
Result<M> decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        Reader io(r);
        M m;
        M::fields(io, m);
        if (!r.done()) return Result<M>::err("trailing bytes");
        return m;
    } catch (const std::out_of_range& e) {
        return Result<M>::err(e.what());
    } catch (const Malformed& e) {
        return Result<M>::err(e.what());
    }
}

}  // namespace failsig::wire
