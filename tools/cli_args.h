// Command-line parsing shared by the tools and bench drivers: the
// `--name value` scanner of mpsram_shard / mpsram_serve / mpsram_client,
// and strict numeric values.
//
// std::stoi and friends stop at the first character they cannot read and
// wrap negative input for unsigned types: "16abc" reads as 16, "3e9" as
// 3, and std::stoul("-1") as 2^64 - 1, which silently turns a bound into
// "unbounded".  cli::number reads the whole string with std::from_chars
// and checks a range, so a bad value never reaches a query, a session, a
// socket or a thread pool.
#ifndef MPSRAM_TOOLS_CLI_ARGS_H
#define MPSRAM_TOOLS_CLI_ARGS_H

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace mpsram::cli {

/// Upper bound of every --threads flag (0 = one per hardware thread): a
/// worker count, not a stress knob.
inline constexpr int max_threads = 256;

/// Reports a bad command-line value and must not return (the tools'
/// usage(): print, exit 2).
using Fail = void (*)(const std::string& message);

/// The default Fail: the message on stderr, exit status 2.
[[noreturn]] inline void exit_bad_value(const std::string& message)
{
    std::cerr << message << "\n";
    std::exit(2);
}

/// The value of `name` (a flag such as "--threads", or a positional
/// argument's name) given as `text`.  The whole of `text` must read as a
/// T — for integers: decimal digits with an optional leading '-', no '+',
/// no exponent, no spaces, no trailing characters — and lie in
/// [lo, hi].  Otherwise `fail` gets a message naming the flag, the value
/// and the range, and the process exits 2.
template <class T>
T number(std::string_view name, std::string_view text, T lo, T hi,
         Fail fail = exit_bad_value)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    T value{};
    const char* const end = text.data() + text.size();
    const auto [stop, err] = std::from_chars(text.data(), end, value);
    // !(lo <= value <= hi) also rejects a NaN.
    if (text.empty() || err != std::errc{} || stop != end ||
        !(value >= lo && value <= hi)) {
        std::ostringstream message;
        message << name << " value '" << text << "' is not "
                << (std::is_integral_v<T> ? "an integer" : "a number")
                << " in [" << lo << ", " << hi << "]";
        fail(message.str());
        std::exit(2);
    }
    return value;
}

/// `--name value` pairs plus positional leftovers.
struct Args {
    std::vector<std::pair<std::string, std::string>> flags;
    std::vector<std::string> positional;
    Fail fail = exit_bad_value;

    std::optional<std::string> get(std::string_view name) const
    {
        for (const auto& flag : flags) {
            if (flag.first == name) return flag.second;
        }
        return std::nullopt;
    }
    std::string require(std::string_view name) const
    {
        const auto v = get(name);
        if (!v) bad("missing required flag --" + std::string(name));
        return *v;
    }
    bool has(std::string_view name) const { return get(name).has_value(); }

    /// Flag --name as a strict number in [lo, hi] (cli::number), or
    /// `fallback` when the flag is absent.
    template <class T>
    T number(std::string_view name, T lo, T hi, T fallback) const
    {
        const auto v = get(name);
        return v ? cli::number("--" + std::string(name), *v, lo, hi, fail)
                 : fallback;
    }

    [[noreturn]] void bad(const std::string& message) const
    {
        fail(message);
        std::exit(2);
    }
};

/// Scan argv[first, argc): `--name value` pairs, the value-less
/// `switches` (recorded with value "1"), and positional arguments.  A
/// flag without its value goes to `fail`.
inline Args parse_args(int argc, char** argv, int first, Fail fail,
                       std::initializer_list<std::string_view> switches = {})
{
    Args args;
    args.fail = fail;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            args.positional.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        if (std::find(switches.begin(), switches.end(), name) !=
            switches.end()) {
            args.flags.emplace_back(std::move(name), "1");
            continue;
        }
        if (i + 1 >= argc) args.bad("flag --" + name + " needs a value");
        args.flags.emplace_back(std::move(name), argv[++i]);
    }
    return args;
}

} // namespace mpsram::cli

#endif // MPSRAM_TOOLS_CLI_ARGS_H
