/**
 * @file
 * job-latency: every app × the four CritIC design points at 150k
 * insts, taken in order by three closed-loop clients (the pool and the
 * caller).  Each job builds a fresh AppExperiment on one thread and
 * runs one variant with no store, so synth, walk, emit, analysis, pass
 * and verify work is paid on every job — `critics_cli run --no-cache`
 * without the process start.
 *
 * One client would match that command more closely, but on a shared
 * host a single thread's speed moves with whatever shares its core:
 * ten one-client runs of the same jobs spread by 25-37% (quartile
 * distance over median), against 6-21% in four sets with three
 * clients.
 *
 * After the timed passes the same jobs run through a Runner (the
 * sweep's path: one shared experiment per app, pool threads) and must
 * agree bit for bit.
 */

#include <filesystem>

#include "common.hh"
#include "pipeline.hh"
#include "runner/orchestrator.hh"
#include "runner/thread_pool.hh"
#include "sim/variants.hh"
#include "spans.hh"

namespace perfbench
{

namespace
{

struct Pass
{
    std::vector<std::string> digests; ///< "" for a failed job
    std::vector<double> jobMs;
    double wallS = 0.0;
    double cpuS = 0.0;
};

} // namespace

Report
runJobLatency(const Config &cfg)
{
    Report report;
    report.workload = "job-latency";
    const auto apps = benchApps(cfg.reseed ? cfg.seed : 0, cfg.smoke);
    const auto options = benchOptions(cfg.smoke);
    std::vector<runner::JobSpec> jobs = runner::makeGrid(
        apps,
        sim::parseVariants("critic,critic-branchpair,critic-ideal,"
                           "opp16+critic"),
        options);
    seededShuffle(jobs, cfg.seed);
    const Usage start = usageNow();

    // Set-up: one throwaway job, timed kSetupReps times on the same
    // three clients as the passes (one client's timings move with the
    // core it happens to share).
    std::vector<double> setupS(kSetupReps);
    const runner::JobSpec warmup = runner::makeGrid(
        {apps.front()}, {sim::parseVariant("critic")}, options)[0];
    runner::ThreadPool::shared().forEach(setupS.size(), [&](std::size_t i) {
        const auto t = Clock::now();
        sim::AppExperiment exp(warmup.profile, warmup.options);
        exp.run(warmup.variant);
        setupS[i] = secondsSince(t);
    });

    // Three closed-loop clients (the pool and the caller) take jobs in
    // order; each job still runs on one thread.
    auto runPass = [&](bool traced, SimTotals *totals) {
        Pass p;
        p.digests.resize(jobs.size());
        p.jobMs.resize(jobs.size());
        std::vector<std::string> errors(jobs.size());
        const Usage u0 = usageNow();
        const auto t0 = Clock::now();
        runner::ThreadPool::shared().forEach(jobs.size(), [&](std::size_t i) {
            const runner::JobSpec &spec = jobs[i];
            const auto t = Clock::now();
            try {
                if (traced) {
                    p.digests[i] = digest(tracedFreshJob(spec, *totals));
                } else {
                    sim::AppExperiment exp(spec.profile, spec.options);
                    p.digests[i] = digest(exp.run(spec.variant));
                }
            } catch (const std::exception &e) {
                errors[i] = "job " + spec.profile.name + "/" +
                            spec.variant.label + " failed: " + e.what();
            }
            p.jobMs[i] = secondsSince(t) * 1e3;
        });
        p.wallS = secondsSince(t0);
        p.cpuS = usageNow().cpuS - u0.cpuS;
        for (const std::string &error : errors)
            report.check(error.empty(), error);
        return p;
    };

    std::vector<Pass> passes;
    const auto runStart = Clock::now();
    do {
        passes.push_back(runPass(false, nullptr));
    } while (!cfg.smoke &&
             secondsSince(runStart) + passes.back().wallS <= cfg.seconds);

    std::vector<double> wall, cpu, jobMs;
    for (const Pass &p : passes) {
        wall.push_back(p.wallS);
        cpu.push_back(p.cpuS);
        jobMs.insert(jobMs.end(), p.jobMs.begin(), p.jobMs.end());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            report.attempted++;
            if (p.digests[i].empty())
                report.failed++;
            else
                report.check(p.digests[i] == passes[0].digests[i],
                             "pass results differ for " +
                                 jobs[i].profile.name + "/" +
                                 jobs[i].variant.label);
        }
    }
    const std::vector<std::string> &fresh = passes[0].digests;

    addEndToEnd(report, setupS, wall, cpu, jobMs);
    report.add("job_p50_ms", percentile(jobMs, 0.5), "ms", jobMs.size(),
               Kind::Info);
    report.add("job_p90_ms", percentile(jobMs, 0.9), "ms", jobMs.size(),
               Kind::Info);

    // The sweep's path must give the fresh experiments' results.
    {
        const std::string dir = freshDir(cfg, "job-latency-runner");
        const auto runner = makeRunner(dir, nullptr);
        const auto t0 = Clock::now();
        const runner::BatchResult batch = runner->run("job-latency", jobs);
        const double batchWallS = secondsSince(t0);
        std::size_t differ = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (!batch.outcomes[i].ok ||
                digest(batch.outcomes[i].result) != fresh[i])
                ++differ;
        }
        report.check(differ == 0,
                     std::to_string(differ) +
                         " jobs differ between fresh experiments and the "
                         "sweep's shared-experiment Runner");
        if (cfg.trace)
            checkStoreAndAddRunnerMetrics(report, cfg, *runner, batch,
                                          batchWallS, kPoolThreads + 1);
        std::filesystem::remove_all(dir);
    }

    if (cfg.trace) {
        SimTotals totals;
        SpanLog log;
        SpanLog::install(&log);
        const std::uint64_t checks0 = verifyChecks();
        const Pass traced = runPass(true, &totals);
        const std::uint64_t checks = verifyChecks() - checks0;
        SpanLog::install(nullptr);
        std::size_t differ = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            differ += traced.digests[i] != fresh[i] ? 1 : 0;
        report.check(differ == 0, std::to_string(differ) +
                                      " traced results differ from the "
                                      "untraced run");
        addLayerMetrics(report, log, totals, checks,
                        traced.wallS - median(wall));
        report.check(log.write(cfg.workDir + "/spans-job-latency.jsonl"),
                     "span file not written");
    }
    addProcessMetrics(report, start);
    return report;
}

} // namespace perfbench
