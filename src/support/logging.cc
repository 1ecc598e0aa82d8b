#include "support/logging.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <stdexcept>

namespace critics
{

namespace
{

std::atomic<bool> quietFlag{false};

/** CRITICS_DEBUG components, parsed once on first use. */
const std::set<std::string> &
debugComponents()
{
    static const std::set<std::string> components = [] {
        std::set<std::string> out;
        const char *env = std::getenv("CRITICS_DEBUG");
        if (env == nullptr)
            return out;
        std::string current;
        for (const char *p = env;; ++p) {
            if (*p == ',' || *p == '\0') {
                if (!current.empty())
                    out.insert(current);
                current.clear();
                if (*p == '\0')
                    break;
            } else {
                current.push_back(*p);
            }
        }
        return out;
    }();
    return components;
}

} // namespace

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

bool
quiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

bool
debugEnabled(const char *component)
{
    const auto &enabled = debugComponents();
    if (enabled.empty())
        return false;
    return enabled.count("all") > 0 || enabled.count(component) > 0;
}

void
debugImpl(const char *component, const std::string &msg)
{
    std::cerr << "debug[" << component << "]: " << msg << std::endl;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << file << ":" << line
              << std::endl;
    // Throw instead of abort() so tests can assert on panics.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const std::string &msg)
{
    // A user error is reported once, by whoever catches it (the CLI
    // prints "error: <msg>", the runner records it on the failed job),
    // and without a source location that means nothing to the user.
    throw std::runtime_error(msg);
}

void
warnImpl(const std::string &msg)
{
    if (!quiet())
        std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (!quiet())
        std::cerr << "info: " << msg << std::endl;
}

} // namespace critics
