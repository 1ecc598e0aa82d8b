#include "support/flags.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "support/logging.hh"
#include "support/parse.hh"

namespace critics::flags
{

Table
join(std::initializer_list<Table> groups)
{
    Table rows;
    for (const auto &group : groups)
        rows.insert(rows.end(), group.begin(), group.end());
    return rows;
}

Flag
text(std::string name, std::string metavar, std::string help,
     std::string &target)
{
    return {std::move(name), std::move(metavar), std::move(help),
            [&target](const std::string &value) { target = value; },
            target};
}

Flag
toggle(std::string name, std::string help, bool &target)
{
    return {std::move(name), "", std::move(help),
            [&target](const std::string &) { target = true; }, ""};
}

Flag
callback(std::string name, std::string metavar, std::string help,
         std::function<void(const std::string &value)> set)
{
    return {std::move(name), std::move(metavar), std::move(help),
            std::move(set), ""};
}

std::uint64_t
detail::parseInteger(const std::string &name, const std::string &value,
                     std::uint64_t lo, std::uint64_t hi)
{
    const auto parsed = parseUnsigned(value, hi);
    if (!parsed || *parsed < lo) {
        critics_fatal(name, " wants an integer in [", lo, ", ", hi,
                      "], got '", value, "'");
    }
    return *parsed;
}

Flag
decimal(std::string name, std::string metavar, std::string help,
        double &target)
{
    auto set = [name, &target](const std::string &value) {
        const auto parsed = parseNonNegative(value);
        if (!parsed) {
            critics_fatal(name, " wants a non-negative number, got '",
                          value, "'");
        }
        target = *parsed;
    };
    std::ostringstream initial;
    initial << target;
    return {std::move(name), std::move(metavar), std::move(help),
            std::move(set), initial.str()};
}

Flag
scaled(std::string name, std::string metavar, std::string help,
       std::uint64_t &target, std::vector<Unit> units)
{
    auto set = [name, &target, units = std::move(units)](
                   const std::string &value) {
        std::string_view digits = value;
        std::uint64_t scale = 1;
        for (const auto &[suffix, factor] : units) {
            if (!digits.empty() && digits.back() == suffix) {
                digits.remove_suffix(1);
                scale = factor;
                break;
            }
        }
        const auto parsed = parseUnsigned(
            digits, std::numeric_limits<std::uint64_t>::max() / scale);
        if (!parsed) {
            critics_fatal(name, " wants an integer with an optional "
                          "unit, got '", value, "'");
        }
        target = *parsed * scale;
    };
    return {std::move(name), std::move(metavar), std::move(help),
            std::move(set), std::to_string(target)};
}

bool
Parsed::has(std::string_view flag) const
{
    return std::find(given.begin(), given.end(), flag) != given.end();
}

std::string
usageText(const std::string &command, const Table &rows,
          const Positionals &positionals)
{
    std::string out = "usage: " + command;
    if (!rows.empty())
        out += " [options]";
    if (!positionals.metavar.empty())
        out += " " + positionals.metavar;
    out += "\n";

    std::vector<std::pair<std::string, std::string>> lines;
    for (const auto &row : rows) {
        std::string left = row.name;
        if (!row.metavar.empty())
            left += " " + row.metavar;
        std::string right = row.help;
        if (!row.initial.empty())
            right += " (default " + row.initial + ")";
        lines.emplace_back(std::move(left), std::move(right));
    }
    lines.emplace_back("--help", "print this help");
    std::size_t width = 0;
    for (const auto &line : lines)
        width = std::max(width, line.first.size());
    for (const auto &[left, right] : lines) {
        out += "  " + left + std::string(width - left.size() + 2, ' ') +
               right + "\n";
    }
    return out;
}

Parsed
parseFlags(const std::string &command, const Table &rows, int argc,
           char **argv, const Positionals &positionals)
{
    for (int i = 0; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--help") {
            std::fputs(usageText(command, rows, positionals).c_str(),
                       stdout);
            std::exit(0);
        }
    }

    Parsed parsed;
    std::vector<std::string> words;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            words.push_back(arg);
            continue;
        }
        const auto row =
            std::find_if(rows.begin(), rows.end(),
                         [&arg](const Flag &f) { return f.name == arg; });
        if (row == rows.end()) {
            critics_fatal(command, ": unknown flag '", arg, "' (see ",
                          command, " --help)");
        }
        std::string value;
        if (!row->metavar.empty()) {
            if (i + 1 >= argc) {
                critics_fatal(command, ": ", arg, " needs a value ",
                              row->metavar);
            }
            value = argv[++i];
        }
        try {
            row->set(value);
        } catch (const std::runtime_error &e) {
            critics_fatal(command, ": ", e.what());
        }
        parsed.given.push_back(arg);
    }

    if (words.size() < positionals.min) {
        critics_fatal(command, ": wants ", positionals.metavar, ", got ",
                      words.size(), " argument(s)");
    }
    if (words.size() > positionals.max) {
        critics_fatal(command, ": unexpected argument '",
                      words[positionals.max], "' (see ", command,
                      " --help)");
    }
    if (positionals.out != nullptr)
        *positionals.out = std::move(words);
    return parsed;
}

} // namespace critics::flags
