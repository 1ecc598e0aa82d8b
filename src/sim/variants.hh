/**
 * @file
 * Named design points and app lists as *strings* — the vocabulary the
 * CLI flags, the serve protocol and the worker argv share.  One place
 * maps "critic-branchpair" to its Variant and "mobile" to its app
 * suite, so a spec that travels over a socket or an exec boundary
 * parses to exactly the grid the local CLI would have built.
 */

#ifndef CRITICS_SIM_VARIANTS_HH
#define CRITICS_SIM_VARIANTS_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "support/flags.hh"
#include "workload/profile.hh"

namespace critics::sim
{

/** Every registered variant name, in presentation order. */
const std::vector<std::string> &allVariantNames();

/** Variant by name; nullopt when unknown (remote input — the serve
 *  protocol must reject bad specs, not kill the daemon). */
std::optional<Variant> tryParseVariant(const std::string &name);

/** Variant by name; fatal when unknown (CLI input). */
Variant parseVariant(const std::string &name);

/** An --apps/--variants value pair resolved to profiles+variants:
 *  apps is a suite name (mobile|android|specint|specfloat|all) or a
 *  comma list of app names; variants is "all" or a comma list.
 *  nullopt (with *error set) on any unknown name or an empty list. */
std::optional<std::vector<workload::AppProfile>>
tryParseApps(const std::string &value, std::string *error = nullptr);

std::optional<std::vector<Variant>>
tryParseVariants(const std::string &value, std::string *error = nullptr);

/** Fatal counterparts for CLI input. */
std::vector<workload::AppProfile> parseApps(const std::string &value);
std::vector<Variant> parseVariants(const std::string &value);

/** The --insts row: dynamic instructions per app, in
 *  [1, program::kMaxTraceInsts] as in the serve protocol. */
flags::Flag instsFlag(std::uint64_t &insts);

/** The grid rows --apps, --variants and --insts.  --apps and
 *  --variants are checked through parseApps/parseVariants when given
 *  and stored as text, which callers resolve the same way. */
flags::Table gridFlags(std::string &apps, std::string &variants,
                       std::uint64_t &insts);

} // namespace critics::sim

#endif // CRITICS_SIM_VARIANTS_HH
