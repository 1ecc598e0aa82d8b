#include "common.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include <sys/resource.h>

#include "runner/orchestrator.hh"
#include "runner/result_store.hh"
#include "stats/registry.hh"
#include "verify/verify.hh"

namespace perfbench
{

void
Report::add(const std::string &name, double value, const std::string &unit,
            std::size_t samples, Kind kind)
{
    check(std::isfinite(value), name + " is not a finite number");
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit,
                       samples, kind});
}

void
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        checkFailures.push_back(what);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
addEndToEnd(Report &report, const std::vector<double> &setupS,
            const std::vector<double> &wallS, const std::vector<double> &cpuS,
            const std::vector<double> &opMs)
{
    report.add("setup_s", median(setupS), "s", setupS.size(),
               Kind::EndToEnd);
    report.add("wall_s", median(wallS), "s", wallS.size(), Kind::EndToEnd);
    report.add("cpu_s", median(cpuS), "s", cpuS.size(), Kind::EndToEnd);
    report.add("p50_ms", percentile(opMs, 0.5), "ms", opMs.size(),
               Kind::EndToEnd);
    report.add("p90_ms", percentile(opMs, 0.9), "ms", opMs.size(),
               Kind::EndToEnd);
    report.add("fail_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(std::max<std::uint64_t>(
                       report.attempted, 1)),
               "frac", report.attempted, Kind::Info);
}

Usage
usageNow()
{
    rusage self{};
    rusage kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    Usage u;
    u.sysS = secs(self.ru_stime) + secs(kids.ru_stime);
    u.cpuS = secs(self.ru_utime) + secs(kids.ru_utime) + u.sysS;
    u.maxRssSelfMb = static_cast<double>(self.ru_maxrss) / 1024.0;
    u.maxRssChildrenMb = static_cast<double>(kids.ru_maxrss) / 1024.0;
    u.nivcsw = static_cast<double>(self.ru_nivcsw + kids.ru_nivcsw);
    u.minflt = static_cast<double>(self.ru_minflt + kids.ru_minflt);
    return u;
}

void
addProcessMetrics(Report &report, const Usage &start)
{
    const Usage now = usageNow();
    report.add("peak_rss_mb",
               std::max(now.maxRssSelfMb, now.maxRssChildrenMb), "MB", 0,
               Kind::EndToEnd);
    report.add("proc.nivcsw", now.nivcsw - start.nivcsw, "count", 0,
               Kind::Layer);
    report.add("proc.minflt", now.minflt - start.minflt, "count", 0,
               Kind::Layer);
    report.add("proc.sys_s", now.sysS - start.sysS, "s", 0, Kind::Layer);
}

std::vector<workload::AppProfile>
benchApps(std::uint64_t profileSeed, bool smoke)
{
    std::vector<workload::AppProfile> apps = workload::allApps();
    if (smoke) {
        // One front-end-bound mobile app and one memory-bound SPEC app.
        std::erase_if(apps, [](const workload::AppProfile &p) {
            return p.name != "Acrobat" && p.name != "mcf";
        });
    }
    if (profileSeed != 0) {
        for (std::size_t i = 0; i < apps.size(); ++i) {
            // splitmix64 of (seed, index): distinct, well-mixed seeds.
            std::uint64_t z = profileSeed + 0x9E3779B97F4A7C15ULL * (i + 1);
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            apps[i].seed = z ^ (z >> 31);
        }
    }
    return apps;
}

sim::ExperimentOptions
benchOptions(bool smoke)
{
    sim::ExperimentOptions options;
    options.traceInsts = smoke ? 20000 : 150000;
    return options;
}

const char *
suiteTag(const workload::AppProfile &profile)
{
    return profile.suite == workload::Suite::Mobile ? "mobile" : "spec";
}

std::uint64_t
verifyChecks()
{
    const verify::Counters &c = verify::counters();
    return c.structuralChecks + c.fullChecks + c.globalChecks;
}

std::string
digest(const sim::RunResult &result)
{
    return runner::resultToJson(result);
}

std::string
freshDir(const Config &cfg, const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(cfg.workDir) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

void
checkStoreAndAddRunnerMetrics(Report &report, const Config &cfg,
                              const runner::Runner &runner,
                              const runner::BatchResult &batch,
                              double batchWallS, unsigned busyThreads)
{
    // Read the batch's store back: every record must equal the result
    // the batch returned.
    const auto loadStart = Clock::now();
    const runner::ResultStore loaded(runner.options().cachePath);
    const double loadMs = secondsSince(loadStart) * 1e3;
    std::vector<double> lookupUs;
    std::size_t mismatches = 0;
    double jobWallS = 0.0;
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
        const runner::JobOutcome &outcome = batch.outcomes[i];
        jobWallS += outcome.wallSeconds;
        const auto t = Clock::now();
        const auto stored = loaded.lookup(batch.jobs[i]);
        lookupUs.push_back(secondsSince(t) * 1e6);
        if (outcome.ok && (!stored || digest(*stored) != digest(outcome.result)))
            ++mismatches;
    }
    report.check(mismatches == 0,
                 std::to_string(mismatches) +
                     " store records differ from the batch's results");

    // Append the same records to a fresh store, one insert at a time.
    std::vector<double> insertUs;
    {
        runner::ResultStore copy(freshDir(cfg, "insert-probe") +
                                 "/results.jsonl");
        for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
            if (!batch.outcomes[i].ok)
                continue;
            const auto t = Clock::now();
            copy.insert(batch.jobs[i], batch.outcomes[i].result);
            insertUs.push_back(secondsSince(t) * 1e6);
        }
    }
    std::filesystem::remove_all(std::filesystem::path(cfg.workDir) /
                                "insert-probe");

    stats::StatRegistry reg;
    runner.registerStats(reg);
    double jobP50Us = 0.0;
    for (const auto &[name, value] : reg.snapshot()) {
        if (name == "runner.jobWall.p50")
            jobP50Us = value;
    }
    const std::size_t n = batch.jobs.size();
    report.add("runner.job_p50_ms", jobP50Us * 1e-3, "ms", n, Kind::Layer);
    report.add("runner.pool_busy_frac",
               batchWallS > 0 ? jobWallS / (busyThreads * batchWallS) : 0.0,
               "frac", n, Kind::Layer);
    report.add("runner.store_load_ms", loadMs, "ms", 1, Kind::Layer);
    report.add("runner.store_lookup_us", percentile(lookupUs, 0.5), "us",
               lookupUs.size(), Kind::Layer);
    report.add("runner.store_insert_us", percentile(insertUs, 0.5), "us",
               insertUs.size(), Kind::Layer);
}

} // namespace perfbench
