// JSON string escaping shared by the scenario reports and the
// observability metrics documents.
#pragma once

#include <cstdio>
#include <string>

namespace failsig {

/// Escapes a string for embedding in a JSON document (quotes not included):
/// '"' and '\\' get a backslash, \n \r \t their short escapes, and any other
/// control character a \u00XX escape.
inline std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

}  // namespace failsig
