/**
 * @file
 * Declarative command-line flags.  A command lists its flags as rows of
 * a table; parseFlags() reads argv against the table, and the same rows
 * give the command's --help text.  Every usage error (unknown flag,
 * missing or malformed value, wrong number of positional arguments)
 * is a critics_fatal() naming the command and the flag, so the caller
 * reports it as one line.
 */

#ifndef CRITICS_SUPPORT_FLAGS_HH
#define CRITICS_SUPPORT_FLAGS_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace critics::flags
{

/** One row of a flag table. */
struct Flag
{
    std::string name;    ///< "--insts"
    std::string metavar; ///< "<n>" in --help; empty for a switch
    std::string help;    ///< one line
    /** Stores the value (empty for a switch); a bad value is a
     *  critics_fatal() that names the flag. */
    std::function<void(const std::string &value)> set;
    /** The bound variable's value when the row was built, shown in
     *  --help as the default unless empty. */
    std::string initial;
};

using Table = std::vector<Flag>;

/** Shared groups followed by a command's own rows, in order. */
Table join(std::initializer_list<Table> groups);

Flag text(std::string name, std::string metavar, std::string help,
          std::string &target);

/** A switch: sets `target` to true. */
Flag toggle(std::string name, std::string help, bool &target);

/** Any other action: a switch when `metavar` is empty. */
Flag callback(std::string name, std::string metavar, std::string help,
              std::function<void(const std::string &value)> set);

namespace detail
{
/** `value` as an integer in [lo, hi]; a usage error naming `name`
 *  otherwise. */
std::uint64_t parseInteger(const std::string &name,
                           const std::string &value, std::uint64_t lo,
                           std::uint64_t hi);
} // namespace detail

/** A base-10 integer in [lo, hi] (parseUnsigned); `hi` defaults to
 *  the range of T. */
template <typename T>
Flag
integer(std::string name, std::string metavar, std::string help,
        T &target, std::uint64_t lo = 0,
        std::uint64_t hi = std::numeric_limits<T>::max())
{
    auto set = [name, lo, hi, &target](const std::string &value) {
        target = static_cast<T>(detail::parseInteger(name, value, lo, hi));
    };
    return {std::move(name), std::move(metavar), std::move(help),
            std::move(set), std::to_string(target)};
}

/** A finite decimal number >= 0 (parseNonNegative). */
Flag decimal(std::string name, std::string metavar, std::string help,
             double &target);

/** A unit suffix and the factor it scales by. */
using Unit = std::pair<char, std::uint64_t>;

/** An integer with an optional unit suffix, scaled to the base unit;
 *  a product past 2^64 is rejected. */
Flag scaled(std::string name, std::string metavar, std::string help,
            std::uint64_t &target, std::vector<Unit> units);

/** The non-flag arguments a command takes. */
struct Positionals
{
    std::string metavar; ///< as shown in --help, e.g. "<before> <after>"
    std::size_t min = 0;
    std::size_t max = 0;
    std::vector<std::string> *out = nullptr;
};

/** The flags parseFlags saw, in order. */
struct Parsed
{
    std::vector<std::string> given;

    bool has(std::string_view flag) const;
};

/**
 * Read `argv` (the arguments after the command words) against `rows`.
 * An argument starting with '-' must name a row; a row with a metavar
 * takes the next argument as its value; anything else is positional.
 * `command` ("critics_cli run") heads the --help text and every error.
 * --help anywhere prints usageText() to stdout and exits 0 before any
 * value is stored.
 */
Parsed parseFlags(const std::string &command, const Table &rows,
                  int argc, char **argv,
                  const Positionals &positionals = {});

/** The --help text: a usage line and one line per row. */
std::string usageText(const std::string &command, const Table &rows,
                      const Positionals &positionals = {});

} // namespace critics::flags

#endif // CRITICS_SUPPORT_FLAGS_HH
