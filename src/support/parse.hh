/**
 * @file
 * Strict number parsing for command-line flags and wire fields.  The
 * whole text must be the number: no sign on an unsigned value, no
 * leading whitespace, no radix prefix and no trailing characters, so
 * `20000abc`, `-1` and `0x10` are rejected instead of being read as
 * 20000, 2^64-1 and 0.
 */

#ifndef CRITICS_SUPPORT_PARSE_HH
#define CRITICS_SUPPORT_PARSE_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace critics
{

/** `text` as a base-10 integer in [0, max], or nullopt. */
std::optional<std::uint64_t>
parseUnsigned(std::string_view text,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** `text` as a finite decimal number >= 0, or nullopt. */
std::optional<double> parseNonNegative(std::string_view text);

} // namespace critics

#endif // CRITICS_SUPPORT_PARSE_HH
