// One token table per enum that crosses a text boundary (canonical JSON,
// an environment pin, a CLI flag).
//
// The (value, token) pairs are declared once, next to the enum:
//
//     inline constexpr auto sampling_tokens = util::token_table<Sampling>(
//         "sampling scheme", {{Sampling::pseudo_random, "pseudo_random"},
//                             {Sampling::latin_hypercube, "latin_hypercube"}});
//
// and every to_string, every parser and every "accepted: ..." error text
// reads that table, so a token is spelled in exactly one place.  Lookups
// are linear scans over a handful of entries and never allocate; only the
// rejection path builds a string.
#ifndef MPSRAM_UTIL_TOKEN_TABLE_H
#define MPSRAM_UTIL_TOKEN_TABLE_H

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "util/contracts.h"

namespace mpsram::util {

template <class E>
struct Token {
    E value;
    std::string_view text;
};

template <class E, std::size_t N>
struct Token_table {
    /// What the enum is, for messages ("metric", "sampling scheme").
    std::string_view noun;
    /// Every value, in table order (the order messages list them in).
    std::array<E, N> values;
    std::array<std::string_view, N> tokens;

    static constexpr std::size_t size() { return N; }

    /// The token of `value`; a value outside the table is a broken
    /// invariant (an out-of-range cast), never user input.
    constexpr std::string_view name(E value) const
    {
        for (std::size_t i = 0; i < N; ++i) {
            if (values[i] == value) return tokens[i];
        }
        throw Invariant_error(std::string("no token for a ") +
                              std::string(noun) + " value");
    }

    constexpr std::optional<E> parse(std::string_view text) const
    {
        for (std::size_t i = 0; i < N; ++i) {
            if (tokens[i] == text) return values[i];
        }
        return std::nullopt;
    }

    /// The accepted set for error messages: "'a', 'b'".
    std::string accepted() const
    {
        std::string out;
        for (const std::string_view token : tokens) {
            if (!out.empty()) out += ", ";
            out += "'";
            out += token;
            out += "'";
        }
        return out;
    }

    /// Throw util::Precondition_error "<prefix> '<text>' (accepted: 'a',
    /// 'b')".  Each caller keeps its own prefix ("invalid MPSRAM_CACHE
    /// value", "unknown metric token").
    [[noreturn]] void reject(std::string_view prefix,
                             std::string_view text) const
    {
        throw Precondition_error(std::string(prefix) + " '" +
                                 std::string(text) +
                                 "' (accepted: " + accepted() + ")");
    }

    E parse_or_throw(std::string_view text, std::string_view prefix) const
    {
        if (const std::optional<E> value = parse(text)) return *value;
        reject(prefix, text);
    }
};

/// Build a table from (value, token) pairs: token_table<E>(noun, {...}).
template <class E, std::size_t N>
constexpr Token_table<E, N> token_table(std::string_view noun,
                                        const Token<E> (&entries)[N])
{
    Token_table<E, N> table{noun, {}, {}};
    for (std::size_t i = 0; i < N; ++i) {
        table.values[i] = entries[i].value;
        table.tokens[i] = entries[i].text;
    }
    return table;
}

} // namespace mpsram::util

#endif // MPSRAM_UTIL_TOKEN_TABLE_H
