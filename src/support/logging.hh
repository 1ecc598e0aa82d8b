/**
 * @file
 * gem5-style status/error reporting: panic() for internal invariant
 * violations, fatal() for user/configuration errors, warn()/inform()
 * for status messages.
 */

#ifndef CRITICS_SUPPORT_LOGGING_HH
#define CRITICS_SUPPORT_LOGGING_HH

#include <sstream>
#include <string>

namespace critics
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
/** Throws std::runtime_error(msg); prints nothing (the catcher
 *  reports it, once). */
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Globally silence warn()/inform() (used by tests and benches).
 *  Thread-safe: jobs on the pool may race a bench main() toggling it. */
void setQuiet(bool quiet);
bool quiet();

/**
 * True when the CRITICS_DEBUG environment variable names `component`
 * (comma list, e.g. `CRITICS_DEBUG=cpu,mem`) or is `all`.  Parsed
 * once per process; debug output is opt-in and therefore *not*
 * silenced by setQuiet().
 */
bool debugEnabled(const char *component);
void debugImpl(const char *component, const std::string &msg);

namespace detail
{

inline void
streamAll(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
streamAll(std::ostringstream &os, const T &first, const Rest &...rest)
{
    os << first;
    streamAll(os, rest...);
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    streamAll(os, args...);
    return os.str();
}

} // namespace detail

} // namespace critics

/** Internal invariant violated: a bug in the simulator itself. */
#define critics_panic(...) \
    ::critics::panicImpl(__FILE__, __LINE__, \
                         ::critics::detail::concat(__VA_ARGS__))

/** The simulation cannot continue due to a user/configuration error. */
#define critics_fatal(...) \
    ::critics::fatalImpl(::critics::detail::concat(__VA_ARGS__))

#define critics_warn(...) \
    ::critics::warnImpl(::critics::detail::concat(__VA_ARGS__))

#define critics_inform(...) \
    ::critics::informImpl(::critics::detail::concat(__VA_ARGS__))

/** Per-component debug line, gated on CRITICS_DEBUG=<component,...>.
 *  The message is only formatted when the component is enabled. */
#define critics_debug(component, ...) \
    do { \
        if (::critics::debugEnabled(component)) { \
            ::critics::debugImpl(component, \
                ::critics::detail::concat(__VA_ARGS__)); \
        } \
    } while (0)

/** Cheap always-on invariant check (simulation correctness beats speed). */
#define critics_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::critics::panicImpl(__FILE__, __LINE__, \
                ::critics::detail::concat("assertion failed: " #cond " ", \
                                          ##__VA_ARGS__)); \
        } \
    } while (0)

#endif // CRITICS_SUPPORT_LOGGING_HH
