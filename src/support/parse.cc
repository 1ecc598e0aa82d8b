#include "support/parse.hh"

#include <charconv>
#include <cmath>

namespace critics
{

std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max)
{
    // from_chars takes no '+' or whitespace, and no '-' for an
    // unsigned type; out-of-range input reports an error code.
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc{} || ptr != end || value > max)
        return std::nullopt;
    return value;
}

std::optional<double>
parseNonNegative(std::string_view text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc{} || ptr != end ||
        !std::isfinite(value) || value < 0.0) {
        return std::nullopt;
    }
    return value;
}

} // namespace critics
