#include "sim/variants.hh"

#include "program/trace.hh"
#include "support/logging.hh"

namespace critics::sim
{

namespace
{

/** Split a comma list, dropping empty items ("a,,b" → {a, b}). */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string current;
    for (const char c : text) {
        if (c == ',') {
            if (!current.empty())
                out.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty())
        out.push_back(current);
    return out;
}

} // namespace

const std::vector<std::string> &
allVariantNames()
{
    static const std::vector<std::string> names = {
        "baseline", "hoist", "critic", "critic-ideal",
        "critic-branchpair", "opp16", "compress", "opp16+critic",
        "prefetch", "aluprio", "backendprio", "efetch", "perfectbr",
        "icache4x", "2xfd", "allhw",
    };
    return names;
}

std::optional<Variant>
tryParseVariant(const std::string &name)
{
    Variant v;
    v.label = name;
    if (name == "baseline") {
    } else if (name == "hoist") {
        v.transform = Transform::Hoist;
    } else if (name == "critic") {
        v.transform = Transform::CritIc;
    } else if (name == "critic-ideal") {
        v.transform = Transform::CritIcIdeal;
    } else if (name == "critic-branchpair") {
        v.transform = Transform::CritIc;
        v.switchMode = compiler::SwitchMode::BranchPair;
    } else if (name == "opp16") {
        v.transform = Transform::Opp16;
    } else if (name == "compress") {
        v.transform = Transform::Compress;
    } else if (name == "opp16+critic") {
        v.transform = Transform::Opp16PlusCritIc;
    } else if (name == "prefetch") {
        v.criticalLoadPrefetch = true;
    } else if (name == "aluprio") {
        v.aluPrio = true;
    } else if (name == "backendprio") {
        v.backendPrio = true;
    } else if (name == "efetch") {
        v.efetch = true;
    } else if (name == "perfectbr") {
        v.perfectBranch = true;
    } else if (name == "icache4x") {
        v.icache4x = true;
    } else if (name == "2xfd") {
        v.doubleFrontend = true;
    } else if (name == "allhw") {
        v.doubleFrontend = v.icache4x = v.efetch = v.perfectBranch =
            v.backendPrio = true;
    } else {
        return std::nullopt;
    }
    return v;
}

Variant
parseVariant(const std::string &name)
{
    const auto v = tryParseVariant(name);
    if (!v) {
        critics_fatal("unknown variant '", name,
                      "' (see --help for the list)");
    }
    return *v;
}

std::optional<std::vector<workload::AppProfile>>
tryParseApps(const std::string &value, std::string *error)
{
    if (value == "mobile" || value == "android")
        return workload::mobileApps();
    if (value == "specint")
        return workload::specIntApps();
    if (value == "specfloat")
        return workload::specFloatApps();
    if (value == "all")
        return workload::allApps();

    // findApp is fatal on an unknown name; remote input must fail
    // soft, so resolve against the full registry here.
    static const std::vector<workload::AppProfile> registry =
        workload::allApps();
    std::vector<workload::AppProfile> apps;
    for (const auto &name : splitList(value)) {
        const workload::AppProfile *found = nullptr;
        for (const auto &profile : registry) {
            if (profile.name == name) {
                found = &profile;
                break;
            }
        }
        if (found == nullptr) {
            if (error != nullptr)
                *error = "unknown app '" + name + "'";
            return std::nullopt;
        }
        apps.push_back(*found);
    }
    if (apps.empty()) {
        if (error != nullptr)
            *error = "empty app list";
        return std::nullopt;
    }
    return apps;
}

std::optional<std::vector<Variant>>
tryParseVariants(const std::string &value, std::string *error)
{
    std::vector<std::string> names;
    if (value == "all")
        names = allVariantNames();
    else
        names = splitList(value);
    std::vector<Variant> variants;
    for (const auto &name : names) {
        const auto v = tryParseVariant(name);
        if (!v) {
            if (error != nullptr)
                *error = "unknown variant '" + name + "'";
            return std::nullopt;
        }
        variants.push_back(*v);
    }
    if (variants.empty()) {
        if (error != nullptr)
            *error = "empty variant list";
        return std::nullopt;
    }
    return variants;
}

std::vector<workload::AppProfile>
parseApps(const std::string &value)
{
    std::string error;
    auto apps = tryParseApps(value, &error);
    if (!apps)
        critics_fatal("--apps: ", error);
    return *apps;
}

std::vector<Variant>
parseVariants(const std::string &value)
{
    std::string error;
    auto variants = tryParseVariants(value, &error);
    if (!variants)
        critics_fatal("--variants: ", error);
    return *variants;
}

flags::Flag
instsFlag(std::uint64_t &insts)
{
    return flags::integer("--insts", "<n>",
                          "dynamic instructions per app", insts, 1,
                          program::kMaxTraceInsts);
}

flags::Table
gridFlags(std::string &apps, std::string &variants, std::uint64_t &insts)
{
    std::string variantNames;
    for (const auto &name : allVariantNames())
        variantNames += (variantNames.empty() ? "" : "|") + name;
    return {
        {"--apps", "<list>",
         "comma list of apps, or mobile|specint|specfloat|all",
         [&apps](const std::string &value) {
             parseApps(value);
             apps = value;
         },
         apps},
        {"--variants", "<list>",
         "comma list of " + variantNames + ", or all",
         [&variants](const std::string &value) {
             parseVariants(value);
             variants = value;
         },
         variants},
        instsFlag(insts),
    };
}

} // namespace critics::sim
