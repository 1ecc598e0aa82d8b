/**
 * @file
 * sweep-cold: the reproduction sweep, all apps × all 16 variants at
 * 150k insts, through one in-process Runner into a fresh result store
 * with the shared pool (2 threads + the caller).  Set-up builds every
 * app's experiment through Runner::experiment, so a pass times the
 * analysis, transform and simulate work of a cold sweep.
 */

#include <filesystem>
#include <memory>

#include "common.hh"
#include "pipeline.hh"
#include "runner/orchestrator.hh"
#include "sim/variants.hh"
#include "spans.hh"

namespace perfbench
{

namespace
{

struct Armed
{
    std::unique_ptr<runner::Runner> runner;
    std::string dir;
};

struct Pass
{
    runner::BatchResult batch;
    double wallS = 0.0;
    double cpuS = 0.0;
};

} // namespace

Report
runSweepCold(const Config &cfg)
{
    Report report;
    report.workload = "sweep-cold";
    const auto apps = benchApps(cfg.reseed ? cfg.seed : 0, cfg.smoke);
    const auto options = benchOptions(cfg.smoke);
    std::vector<runner::JobSpec> jobs =
        runner::makeGrid(apps, sim::parseVariants("all"), options);
    seededShuffle(jobs, cfg.seed);
    const Usage start = usageNow();

    unsigned armedCount = 0;
    // A traced set-up (one with the traced executor) also measures the
    // synth/walk/emit layers.
    auto setup = [&](const Executor &executor) {
        Armed a;
        a.dir = freshDir(cfg, "sweep-" + std::to_string(armedCount++));
        a.runner = makeRunner(a.dir, executor);
        buildExperiments(*a.runner, apps, options,
                         static_cast<bool>(executor));
        return a;
    };
    auto disarm = [&](Armed &a) {
        a.runner.reset();
        std::filesystem::remove_all(a.dir);
    };
    auto runPass = [&](Armed &a) {
        Pass p;
        const Usage u0 = usageNow();
        const auto t0 = Clock::now();
        p.batch = a.runner->run("sweep-cold", jobs);
        p.wallS = secondsSince(t0);
        p.cpuS = usageNow().cpuS - u0.cpuS;
        return p;
    };

    // Set-up is timed kSetupReps times; the last one arms the first pass.
    std::vector<double> setupS;
    for (int i = 0; i + 1 < kSetupReps; ++i) {
        const auto t = Clock::now();
        Armed a = setup(nullptr);
        setupS.push_back(secondsSince(t));
        disarm(a);
    }

    std::vector<Pass> passes;
    const auto runStart = Clock::now();
    do {
        const auto t = Clock::now();
        Armed a = setup(nullptr);
        setupS.push_back(secondsSince(t));
        passes.push_back(runPass(a));
        if (passes.size() == 1 && cfg.trace)
            checkStoreAndAddRunnerMetrics(report, cfg, *a.runner,
                                          passes.back().batch,
                                          passes.back().wallS,
                                          kPoolThreads + 1);
        disarm(a);
    } while (!cfg.smoke &&
             secondsSince(runStart) + passes.back().wallS <= cfg.seconds);

    std::vector<double> wall, cpu, jobMs;
    for (const Pass &p : passes) {
        wall.push_back(p.wallS);
        cpu.push_back(p.cpuS);
        for (std::size_t i = 0; i < p.batch.jobs.size(); ++i) {
            const runner::JobOutcome &o = p.batch.outcomes[i];
            report.attempted++;
            if (!o.ok) {
                report.failed++;
                report.check(false, "job " + p.batch.jobs[i].profile.name +
                                        "/" + p.batch.jobs[i].variant.label +
                                        " failed: " + o.error);
            }
            jobMs.push_back(o.wallSeconds * 1e3);
        }
    }
    // Every pass must give the first pass's results.
    for (const Pass &p : passes) {
        for (std::size_t i = 0; i < p.batch.jobs.size(); ++i) {
            if (p.batch.outcomes[i].ok && passes[0].batch.outcomes[i].ok)
                report.check(digest(p.batch.outcomes[i].result) ==
                                 digest(passes[0].batch.outcomes[i].result),
                             "pass results differ for " +
                                 p.batch.jobs[i].profile.name + "/" +
                                 p.batch.jobs[i].variant.label);
        }
    }

    addEndToEnd(report, setupS, wall, cpu, jobMs);

    if (cfg.trace) {
        SimTotals totals;
        SpanLog log;
        SpanLog::install(&log);
        Armed a = setup(tracedExecutor(totals));
        const std::uint64_t checks0 = verifyChecks();
        const Pass traced = runPass(a);
        const std::uint64_t checks = verifyChecks() - checks0;
        SpanLog::install(nullptr);
        disarm(a);

        std::size_t differ = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const runner::JobOutcome &t = traced.batch.outcomes[i];
            const runner::JobOutcome &u = passes[0].batch.outcomes[i];
            if (!t.ok || !u.ok || digest(t.result) != digest(u.result))
                ++differ;
        }
        report.check(differ == 0, std::to_string(differ) +
                                      " traced results differ from the "
                                      "untraced run");
        addLayerMetrics(report, log, totals, checks,
                        traced.wallS - median(wall));
        report.check(log.write(cfg.workDir + "/spans-sweep-cold.jsonl"),
                     "span file not written");
    }
    addProcessMetrics(report, start);
    return report;
}

} // namespace perfbench
