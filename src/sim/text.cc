/**
 * @file
 * Text module implementation: token matching, the number reader and
 * the trace line splitter.
 */

#include "sim/text.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>

#include "sim/logging.hh"

namespace mcdla
{

namespace text_detail
{

bool
spells(std::string_view text, const char *token, const char *aliases,
       const char *name)
{
    if (text == token || (name != nullptr && text == name))
        return true;
    for (std::string_view rest = aliases; !rest.empty();) {
        const std::size_t space = rest.find(' ');
        if (text == rest.substr(0, space))
            return true;
        if (space == std::string_view::npos)
            break;
        rest.remove_prefix(space + 1);
    }
    return false;
}

void
unknownToken(const char *noun, std::string_view text,
             const std::string &list)
{
    fatal("unknown %s '%.*s' (%s)", noun, static_cast<int>(text.size()),
          text.data(), list.c_str());
}

void
missingRow(const char *noun, int value)
{
    panic("%s %d has no token", noun, value);
}

std::optional<std::int64_t>
readInteger(std::string_view text, std::int64_t lo, std::int64_t hi)
{
    const std::string s(text);
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE || v < lo
        || v > hi)
        return std::nullopt;
    return v;
}

std::optional<double>
readFinite(std::string_view text)
{
    const std::string s(text);
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::string
integerForm(std::int64_t lo, std::int64_t hi)
{
    if (lo == std::numeric_limits<std::int64_t>::min()
        && hi == std::numeric_limits<std::int64_t>::max())
        return "an integer";
    return strfmt("an integer in [%lld, %lld]", static_cast<long long>(lo),
                  static_cast<long long>(hi));
}

} // namespace text_detail

TraceReader::TraceReader(std::istream &in, const char *trace)
    : _in(in), _trace(trace)
{}

bool
TraceReader::next()
{
    _fields.clear();
    while (_fields.empty() && std::getline(_in, _text)) {
        ++_line;
        std::string_view rest(_text);
        rest = rest.substr(0, rest.find('#'));
        constexpr const char *kSpace = " \t\r\n\v\f";
        for (std::size_t start = rest.find_first_not_of(kSpace);
             start != std::string_view::npos;
             start = rest.find_first_not_of(kSpace, start)) {
            const std::size_t stop = rest.find_first_of(kSpace, start);
            const std::string_view token =
                rest.substr(start, stop - start);
            const std::size_t eq = token.find('=');
            if (eq == std::string_view::npos)
                fail("token '" + std::string(token)
                     + "' is not key=value");
            _fields.push_back({token.substr(0, eq), token.substr(eq + 1)});
            start = stop;
        }
    }
    return !_fields.empty();
}

void
TraceReader::require(std::string_view key) const
{
    for (const Field &field : _fields)
        if (field.key == key)
            return;
    fail(std::string(key) + "= is required");
}

void
TraceReader::fail(const std::string &what) const
{
    fatal("%s line %d: %s", _trace, _line, what.c_str());
}

} // namespace mcdla
