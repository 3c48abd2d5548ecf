#include "explore/repro.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.hpp"
#include "scenario/fields.hpp"

namespace failsig::explore {

namespace {

using scenario::Scenario;
using scenario::ScenarioEvent;

/// The key of every timeline line.
constexpr std::string_view kEventKey = "event";

/// The spec header: the format line, the scenario's keys and the recorded
/// expectation, written only when there is one.
template <typename IO, typename F, typename S, typename X>
void spec_fields(IO& io, F& format, S& s, X& expect_violation) {
    io.text("format", format);
    scenario::scenario_fields(io, s);
    if (io.present(!expect_violation.empty())) io.text("expect_violation", expect_violation);
}

/// Renders the walk: header keys as "key = value" lines, event tokens as
/// " token=value".
class Writer {
public:
    Writer(std::string& out, bool event) : out_(out), event_(event) {}

    void text(const char* k, const std::string& v) { put(k, v); }
    void flag(const char* k, bool v) { put(k, v ? "1" : "0"); }
    template <typename E, typename Names>
    void choice(const char* k, E v, const Names& names) {
        put(k, scenario::name_in(names, v));
    }
    void u64(const char* k, std::uint64_t v) { put(k, std::to_string(v)); }
    void count(const char* k, int v, int) { put(k, std::to_string(v)); }
    void us(const char* k, Duration v, Duration = 0) { put(k, std::to_string(v)); }
    void member(const char* k, int v) { put(k, std::to_string(v)); }
    void groups(const char* k, const std::vector<std::vector<int>>& v) {
        std::string s;
        for (std::size_t g = 0; g < v.size(); ++g) {
            if (g) s += "|";
            for (std::size_t i = 0; i < v[g].size(); ++i) {
                s += (i ? "," : "") + std::to_string(v[g][i]);
            }
        }
        put(k, s);
    }
    void payload(const char* k, std::size_t v) { put(k, std::to_string(v)); }
    void factor(const char* k, double v) { real(k, v); }
    void probability(const char* k, double v) { real(k, v); }
    void rate(const char* k, double v) { real(k, v); }
    bool present(bool set) { return set; }

private:
    void real(const char* k, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        put(k, buf);
    }
    void put(const char* k, const std::string& v) {
        out_ += event_ ? std::string(" ") + k + "=" + v : std::string(k) + " = " + v + "\n";
    }

    std::string& out_;
    bool event_;
};

/// A header value or an event token, with the spec line it came from.
struct Token {
    std::string text;
    std::size_t line{0};
    bool used{false};
};
using Tokens = std::map<std::string, Token, std::less<>>;

std::string at_line(std::size_t line, const std::string& what) {
    return "spec line " + std::to_string(line) + ": " + what;
}

/// Parses the walk out of a spec's tokens and marks each token it reads;
/// keeps the first error. A header key may be absent (its default stays).
/// An event reader gets the event's line and an error prefix naming it
/// ("event 'crash': "), and each of its tokens must be there.
class Reader {
public:
    explicit Reader(Tokens& tokens, std::size_t line = 0, std::string prefix = "")
        : tokens_(tokens), line_(line), prefix_(std::move(prefix)) {}

    void text(const char* k, std::string& v) {
        if (const Token* t = take(k)) v = t->text;
    }
    void flag(const char* k, bool& v) {
        const Token* t = take(k);
        if (t != nullptr && check(k, t->text == "0" || t->text == "1")) v = t->text == "1";
    }
    template <typename E, typename Names>
    void choice(const char* k, E& v, const Names& names) {
        if (const Token* t = take(k)) check(k, scenario::value_in(names, t->text, v));
    }
    template <typename U>
    void u64(const char* k, U& v) {
        std::uint64_t wide = 0;
        const Token* t = take(k);
        if (t != nullptr && check(k, parse_u64(t->text, wide))) v = wide;
    }
    void count(const char* k, int& v, int) { integer(k, v); }
    void us(const char* k, Duration& v, Duration = 0) {
        if (const Token* t = take(k)) check(k, parse_i64(t->text, v));
    }
    void member(const char* k, int& v) { integer(k, v); }
    /// Members joined by ',' within a group, groups by '|'. A '|' right after
    /// a delimiter closes an empty group; an empty member is an error.
    void groups(const char* k, std::vector<std::vector<int>>& v) {
        const Token* t = take(k);
        if (t == nullptr) return;
        v.assign(1, {});
        std::string num;
        for (const char c : t->text + "|") {
            if (c != ',' && c != '|') {
                num += c;
                continue;
            }
            if (!num.empty() || c == ',') {
                if (!check(k, parse_int(num, v.back().emplace_back()))) return;
                num.clear();
            }
            if (c == '|') v.emplace_back();
        }
        v.pop_back();  // opened by the sentinel '|'
    }
    void payload(const char* k, std::size_t& v) { u64(k, v); }
    void factor(const char* k, double& v) { real(k, v); }
    void probability(const char* k, double& v) { real(k, v); }
    void rate(const char* k, double& v) { real(k, v); }
    bool present(bool) { return true; }

    std::string error;

private:
    const Token* take(const char* k) {
        const auto it = tokens_.find(k);
        if (it == tokens_.end()) {
            if (line_ != 0 && error.empty()) error = at_line(line_, prefix_ + "missing " + k);
            return nullptr;
        }
        it->second.used = true;
        return taken_ = &it->second;
    }
    /// Records a malformed value of the token just taken.
    bool check(const char* k, bool ok) {
        if (!ok && error.empty()) {
            error = at_line(taken_->line, prefix_ + "bad " + k + " '" + taken_->text + "'");
        }
        return ok;
    }
    void integer(const char* k, int& v) {
        if (const Token* t = take(k)) check(k, parse_int(t->text, v));
    }
    void real(const char* k, double& v) {
        if (const Token* t = take(k)) check(k, parse_double(t->text, v));
    }

    Tokens& tokens_;
    std::size_t line_;
    std::string prefix_;
    const Token* taken_{nullptr};
};

/// The first token, by key, that no walk read; nullptr when none.
const Tokens::value_type* first_unused(const Tokens& tokens) {
    for (const auto& entry : tokens) {
        if (!entry.second.used) return &entry;
    }
    return nullptr;
}

std::string trim(const std::string& s) {
    const std::size_t e = s.find_last_not_of(" \t\r");
    if (e == std::string::npos) return "";
    const std::size_t b = s.find_first_not_of(" \t");
    return s.substr(b, e + 1 - b);
}

/// Splits "k1=v1 k2=v2 ..." into tokens; returns false on a malformed or
/// repeated token.
bool split_tokens(const std::string& text, std::size_t line, Tokens& out) {
    for (std::size_t pos = 0; (pos = text.find_first_not_of(' ', pos)) != std::string::npos;) {
        const std::size_t end = std::min(text.find(' ', pos), text.size());
        const std::size_t eq = text.find('=', pos);
        if (eq <= pos || eq >= end ||
            !out.emplace(text.substr(pos, eq - pos), Token{text.substr(eq + 1, end - eq - 1), line})
                 .second) {
            return false;
        }
        pos = end;
    }
    return true;
}

using Err = Result<ReproSpec>;

}  // namespace

std::string to_spec(const Scenario& s, const std::string& expect_violation) {
    std::string out = "# failsig scenario spec — re-run with: explore_cli --replay <this file>\n";
    const std::string format = kSpecFormat;
    Writer header(out, false);
    spec_fields(header, format, s, expect_violation);
    for (const auto& e : s.timeline) {
        out += std::string(kEventKey) + " = " + scenario::name_in(scenario::kEventNames, e.kind);
        Writer tokens(out, true);
        scenario::event_fields(tokens, e);
        out += "\n";
    }
    return out;
}

Result<ReproSpec> parse_spec(const std::string& text) {
    // Split the text into header values (each key once) and event lines.
    Tokens header;
    std::vector<Token> events;
    std::istringstream in(text);
    std::size_t line_no = 0;
    for (std::string raw; std::getline(in, raw);) {
        const std::string line = trim(raw);
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) return Err::err(at_line(line_no, "expected key = value"));
        const std::string key = trim(line.substr(0, eq));
        Token value{trim(line.substr(eq + 1)), line_no};
        if (key == kEventKey) {
            events.push_back(std::move(value));
        } else if (!header.emplace(key, std::move(value)).second) {
            return Err::err(at_line(line_no, "repeated key '" + key + "'"));
        }
    }

    ReproSpec spec;
    Scenario& s = spec.scenario;
    std::string format;
    Reader header_reader(header);
    spec_fields(header_reader, format, s, spec.expect_violation);
    if (format != kSpecFormat) {
        return Err::err(format.empty() ? std::string("spec: missing 'format = ") + kSpecFormat + "'"
                                       : "spec: bad format '" + format + "'");
    }
    if (!header_reader.error.empty()) return Err::err(header_reader.error);
    if (const auto* unknown = first_unused(header)) {
        return Err::err(at_line(unknown->second.line, "unknown key '" + unknown->first + "'"));
    }
    // Each value is range-checked once read, and its error names its line.
    scenario::RangeCheck check(s.group_size);
    scenario::scenario_fields(check, s);
    if (check.key != nullptr) {
        const auto it = header.find(check.key);
        return Err::err(it == header.end() ? "spec: " + check.error
                                           : at_line(it->second.line, check.error));
    }

    for (const Token& line : events) {
        const std::size_t sp = line.text.find(' ');
        const std::string kind = line.text.substr(0, sp);
        ScenarioEvent e;
        if (!scenario::value_in(scenario::kEventNames, kind, e.kind)) {
            return Err::err(at_line(line.line, "unknown event kind '" + kind + "'"));
        }
        Tokens tokens;
        if (sp != std::string::npos && !split_tokens(line.text.substr(sp + 1), line.line, tokens)) {
            return Err::err(at_line(line.line, "malformed event tokens: " + line.text));
        }
        const std::string where = "event '" + kind + "': ";
        Reader reader(tokens, line.line, where);
        scenario::event_fields(reader, e);
        if (!reader.error.empty()) return Err::err(reader.error);
        if (const auto* unknown = first_unused(tokens)) {
            return Err::err(at_line(line.line, where + "unknown token '" + unknown->first + "'"));
        }
        scenario::event_fields(check, e);
        if (check.key != nullptr) return Err::err(at_line(line.line, where + check.error));
        s.timeline.push_back(std::move(e));
    }
    return spec;
}

}  // namespace failsig::explore
