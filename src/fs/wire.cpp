#include "fs/wire.hpp"

namespace failsig::fs {

Result<WireKind> peek_kind(std::span<const std::uint8_t> data) {
    if (data.empty()) return Result<WireKind>::err("empty wire payload");
    const auto tag = data[0];
    if (tag < 1 || tag > 4) return Result<WireKind>::err("unknown wire kind");
    return static_cast<WireKind>(tag);
}

}  // namespace failsig::fs
