// Strict number readers for command lines and spec files.
//
// The whole text must be the number: no whitespace, no '+', no trailing
// garbage, and a '-' only for signed types. A typo then fails loudly instead
// of running a different value: "-1" does not wrap to 2^64-1, and " 3",
// "+3" and "4x8" are not numbers.
#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace failsig {

namespace detail {
template <typename T>
bool parse_whole(std::string_view text, T& out) {
    T value{};
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) return false;
    out = value;
    return true;
}
}  // namespace detail

inline bool parse_u64(std::string_view text, std::uint64_t& out) {
    return detail::parse_whole(text, out);
}

inline bool parse_i64(std::string_view text, std::int64_t& out) {
    return detail::parse_whole(text, out);
}

inline bool parse_int(std::string_view text, int& out) { return detail::parse_whole(text, out); }

inline bool parse_double(std::string_view text, double& out) {
    return detail::parse_whole(text, out);
}

}  // namespace failsig
