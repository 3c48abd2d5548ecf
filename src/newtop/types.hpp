// Basic NewTOP types: members, views, service classes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace failsig::newtop {

/// Index of a group member (the paper's A_i / NSO_i).
using MemberId = std::uint32_t;

/// The group-communication service classes NewTOP offers (paper §3).
enum class ServiceType : std::uint8_t {
    kSymmetricTotalOrder = 1,   ///< all-member logical acknowledgement
    kAsymmetricTotalOrder = 2,  ///< sequencer-assigned order
    kCausalOrder = 3,           ///< vector-clock causal delivery
    kReliableMulticast = 4,     ///< FIFO-reliable, no total order
    kUnreliableMulticast = 5,   ///< best effort
};

/// The service class's name in reports.
inline const char* name_of(ServiceType service) {
    switch (service) {
        case ServiceType::kSymmetricTotalOrder: return "symmetric";
        case ServiceType::kAsymmetricTotalOrder: return "asymmetric";
        case ServiceType::kCausalOrder: return "causal";
        case ServiceType::kReliableMulticast: return "reliable";
        case ServiceType::kUnreliableMulticast: return "unreliable";
    }
    return "?";
}

/// An installed membership view.
struct GroupView {
    std::uint64_t view_id{0};
    std::vector<MemberId> members;  // kept sorted

    [[nodiscard]] bool contains(MemberId m) const {
        return std::find(members.begin(), members.end(), m) != members.end();
    }
    /// The view coordinator (lowest-id member).
    [[nodiscard]] MemberId coordinator() const { return members.empty() ? 0 : members.front(); }

    friend bool operator==(const GroupView&, const GroupView&) = default;
};

inline std::string to_string(const GroupView& v) {
    std::string s = "view#" + std::to_string(v.view_id) + "{";
    for (std::size_t i = 0; i < v.members.size(); ++i) {
        if (i) s += ",";
        s += std::to_string(v.members[i]);
    }
    return s + "}";
}

}  // namespace failsig::newtop
