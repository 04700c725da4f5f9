/**
 * @file
 * The two JSON formatting helpers every artifact writer shares.
 *
 * The result sink, the host profile and the crash tools all write
 * deterministic JSON by hand; these keep their string escaping and
 * float rendering identical, so artifacts stay byte-comparable.
 */

#ifndef EDE_EXP_JSON_HH
#define EDE_EXP_JSON_HH

#include <cstdio>
#include <string>
#include <string_view>

namespace ede {
namespace exp {

/** Minimal JSON string escaping (labels, messages, stderr tails). */
inline std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** A double with every significant digit (round-trips exactly). */
inline std::string
jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace exp
} // namespace ede

#endif // EDE_EXP_JSON_HH
