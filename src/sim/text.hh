/**
 * @file
 * The one reader of outside text: CLI vocabularies, numbers and
 * `key=value` trace lines.
 *
 *  - TokenTable: the vocabulary of one CLI enum (--design, --mode,
 *    --scheduler, ...), one row per value with its canonical token,
 *    further spellings, an optional long name and a catalog line.
 *    parse(), token(), name(), all(), list() and description() read
 *    the same static array, so the help text, the --list-* catalogs,
 *    the scenario labels and the "unknown <noun> '<x>' (<list>)" fatal
 *    line cannot drift apart.
 *  - readNumber<T>(): the strict number reader. The whole string must
 *    be one number; a floating value must be finite and an integer
 *    must fit T.
 *  - TraceReader / readTrace<Record>(): the `key=value` line format of
 *    the job and request traces. Each trace supplies only its per-key
 *    switch and its record check.
 */

#ifndef MCDLA_SIM_TEXT_HH
#define MCDLA_SIM_TEXT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mcdla
{

/// @name Token tables
/// @{

/** One value of a CLI enum. */
template <typename E>
struct TokenRow
{
    E value;
    /** Canonical CLI token: what token() returns and list() shows. */
    const char *token;
    /** Further spellings parse() accepts, space-separated. */
    const char *aliases = "";
    /** Long human name ("MC-DLA(B)"), also accepted by parse(). */
    const char *name = nullptr;
    /** One-line description (the --list-* catalogs). */
    const char *description = nullptr;
};

namespace text_detail
{

/** Whether @p text is @p token, one of @p aliases or @p name. */
bool spells(std::string_view text, const char *token,
            const char *aliases, const char *name);

/** Fatal "unknown <noun> '<text>' (<list>)". */
[[noreturn]] void unknownToken(const char *noun, std::string_view text,
                               const std::string &list);

/** Panic: enum value @p value of @p noun has no row. */
[[noreturn]] void missingRow(const char *noun, int value);

} // namespace text_detail

/**
 * The vocabulary of one CLI enum: a view of a static array of rows in
 * catalog order. Every lookup is a linear scan of that array (the
 * tables hold two to eight rows); nothing is allocated per call.
 */
template <typename E>
class TokenTable
{
  public:
    using Row = TokenRow<E>;

    /** The rows, iterable and indexable. */
    struct Rows
    {
        const Row *first;
        std::size_t count;

        const Row *begin() const { return first; }
        const Row *end() const { return first + count; }
        std::size_t size() const { return count; }
        const Row &operator[](std::size_t i) const { return first[i]; }
    };

    /** @p noun names the vocabulary in the unknown-value fatal line. */
    template <std::size_t N>
    constexpr TokenTable(const char *noun, const Row (&rows)[N])
        : _noun(noun), _rows{rows, N}
    {}

    /** The value @p text spells (token, alias or long name); fatal. */
    E
    parse(std::string_view text) const
    {
        for (const Row &row : _rows)
            if (text_detail::spells(text, row.token, row.aliases,
                                    row.name))
                return row.value;
        text_detail::unknownToken(_noun, text, list());
    }

    /** Canonical CLI token of @p value. */
    const char *token(E value) const { return row(value).token; }

    /** Long name of @p value (its token when the row has none). */
    const char *
    name(E value) const
    {
        const Row &r = row(value);
        return r.name != nullptr ? r.name : r.token;
    }

    /** Catalog line of @p value ("" when the row has none). */
    const char *
    description(E value) const
    {
        const Row &r = row(value);
        return r.description != nullptr ? r.description : "";
    }

    /** Every row, in catalog order. */
    Rows all() const { return _rows; }

    /** The canonical tokens joined by @p separator (help text). */
    std::string
    list(const char *separator = ", ") const
    {
        std::string tokens;
        for (const Row &row : _rows) {
            if (!tokens.empty())
                tokens += separator;
            tokens += row.token;
        }
        return tokens;
    }

  private:
    const Row &
    row(E value) const
    {
        for (const Row &r : _rows)
            if (r.value == value)
                return r;
        text_detail::missingRow(_noun, static_cast<int>(value));
    }

    const char *_noun;
    Rows _rows;
};

/// @}

/// @name Numbers
/// @{

namespace text_detail
{

/** All of @p text as a base-10 integer in [lo, hi]. */
std::optional<std::int64_t> readInteger(std::string_view text,
                                        std::int64_t lo,
                                        std::int64_t hi);

/** All of @p text as a finite number. */
std::optional<double> readFinite(std::string_view text);

/** "an integer", or "an integer in [lo, hi]" when narrower. */
std::string integerForm(std::int64_t lo, std::int64_t hi);

} // namespace text_detail

/**
 * The strict number reader: all of @p text as a T, or nullopt. A
 * double must be finite ("nan", "inf" and overflow are refused); an
 * integer is base 10 and must fit T. Leading whitespace and a sign
 * are accepted, trailing characters are not.
 */
template <typename T>
std::optional<T>
readNumber(std::string_view text)
{
    if constexpr (std::is_floating_point_v<T>) {
        static_assert(std::is_same_v<T, double>);
        return text_detail::readFinite(text);
    } else {
        static_assert(std::is_integral_v<T>
                      && (std::is_signed_v<T>
                          || sizeof(T) < sizeof(std::int64_t)));
        const std::optional<std::int64_t> v = text_detail::readInteger(
            text, std::numeric_limits<T>::min(),
            std::numeric_limits<T>::max());
        if (!v)
            return std::nullopt;
        return static_cast<T>(*v);
    }
}

/** What readNumber<T> accepts, for messages ("a finite number"). */
template <typename T>
std::string
numberForm()
{
    if constexpr (std::is_floating_point_v<T>)
        return "a finite number";
    else
        return text_detail::integerForm(std::numeric_limits<T>::min(),
                                        std::numeric_limits<T>::max());
}

/// @}

/// @name key=value traces
/// @{

/**
 * Line reader of a `key=value` trace: one record per line of
 * whitespace-separated key=value tokens; '#' starts a comment and
 * lines without tokens are skipped. Every complaint is one fatal line
 * "<trace> line <n>: ...".
 */
class TraceReader
{
  public:
    /** One key=value token of the current line. */
    struct Field
    {
        std::string_view key;
        std::string_view value;
    };

    /** @p trace names the input in messages ("job trace"). */
    TraceReader(std::istream &in, const char *trace);

    /**
     * Advance to the next line with tokens; false at the end of the
     * input. Fatal on a token that is not key=value.
     */
    bool next();

    /** The current line's tokens, in order. */
    const std::vector<Field> &fields() const { return _fields; }

    /** @p field's value as a T (readNumber); fatal naming the key. */
    template <typename T>
    T
    number(const Field &field) const
    {
        if (const std::optional<T> v = readNumber<T>(field.value))
            return *v;
        fail(std::string(field.key) + "=" + std::string(field.value)
             + " is not " + numberForm<T>());
    }

    /** Fatal "<key>= is required" unless the line has @p key. */
    void require(std::string_view key) const;

    /** Fatal "<trace> line <n>: <what>". */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    std::istream &_in;
    const char *_trace;
    int _line = 0;
    std::string _text;
    std::vector<Field> _fields;
};

/**
 * Read a `key=value` trace of @p Record, a struct with `name` and
 * `arrivalSec`. The reader takes `arrival=` (required; finite seconds,
 * not negative) and `name=` itself and hands every other key to
 * @p set(record, reader, field), which returns false for a key it
 * does not know (fatal "unknown key"). @p check(record, reader)
 * validates each finished record. Unnamed records are named
 * <prefix><index>; the records come back stably sorted by arrival.
 */
template <typename Record, typename Set, typename Check>
std::vector<Record>
readTrace(std::istream &in, const char *trace, const char *prefix,
          Set set, Check check)
{
    std::vector<Record> records;
    TraceReader reader(in, trace);
    while (reader.next()) {
        Record record;
        for (const TraceReader::Field &field : reader.fields()) {
            if (field.key == "arrival") {
                record.arrivalSec = reader.number<double>(field);
                if (record.arrivalSec < 0.0)
                    reader.fail("negative arrival time");
            } else if (field.key == "name") {
                record.name = field.value;
            } else if (!set(record, reader, field)) {
                reader.fail("unknown key '" + std::string(field.key)
                            + "'");
            }
        }
        reader.require("arrival");
        check(record, reader);
        if (record.name.empty())
            record.name = prefix + std::to_string(records.size());
        records.push_back(std::move(record));
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const Record &a, const Record &b) {
                         return a.arrivalSec < b.arrivalSec;
                     });
    return records;
}

/// @}

} // namespace mcdla

#endif // MCDLA_SIM_TEXT_HH
