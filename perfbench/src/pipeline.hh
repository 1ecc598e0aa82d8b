/**
 * @file
 * The traced job pipeline.  It produces the same RunResult as
 * sim::AppExperiment::run(variant), but through the public functions
 * of each module, one SpanScope around each call, so the traced run
 * can split a job's time by layer:
 *
 *   workload.synth  program.walk  program.emit        (building an app)
 *   analysis.fanout/chains/loctable/mine/critset/select
 *   compiler.pass   verify.structural   program.reemit
 *   cpu.sim (tagged mobile/spec)
 *
 * The timed passes never use it; every traced run checks that its
 * results equal the untraced run's bit for bit.
 */

#ifndef PERFBENCH_PIPELINE_HH
#define PERFBENCH_PIPELINE_HH

#include <atomic>
#include <functional>
#include <memory>

#include "common.hh"
#include "spans.hh"
#include "runner/job.hh"
#include "sim/experiment.hh"

namespace perfbench
{

/** Simulated-work counters of the traced jobs, per suite tag. */
struct SimTotals
{
    std::atomic<std::uint64_t> cycles[2]{}; ///< [mobile, spec]
    std::atomic<std::uint64_t> insts[2]{};
    void add(const workload::AppProfile &profile,
             const cpu::CpuStats &stats);
};

/**
 * Runner executor that replaces `exp.run(spec.variant)` with the
 * traced pipeline over the shared experiment's analysis accessors.
 * Accessor calls for one app are serialised by the executor, so an
 * analysis span holds the work itself and never a wait on another
 * job's once-latch.
 */
using Executor = std::function<sim::RunResult(const runner::JobSpec &,
                                              sim::AppExperiment &)>;
Executor tracedExecutor(SimTotals &totals);

/** One job from scratch (fresh synthesis, no memo, no store) — the
 *  traced form of `AppExperiment(profile).run(variant)`. */
sim::RunResult tracedFreshJob(const runner::JobSpec &spec,
                              SimTotals &totals);

/** A Runner over a fresh store at `dir`/results.jsonl, writing no
 *  manifest and no progress line; a null `executor` runs
 *  `exp.run(variant)`. */
std::unique_ptr<runner::Runner> makeRunner(const std::string &dir,
                                           Executor executor);

/**
 * Builds every app's experiment in `runner` on the shared pool.  With
 * `traced`, each app's synth/walk/emit calls are also made once more
 * inside spans, to time those layers (the experiment is built
 * untraced by Runner::experiment).
 */
void buildExperiments(runner::Runner &runner,
                      const std::vector<workload::AppProfile> &apps,
                      const sim::ExperimentOptions &options, bool traced);

/** Adds the per-layer metrics to `report`: the span log's self times,
 *  the simulated-work counts in `totals`, the verifier checks run and
 *  the tracing overhead (traced pass wall - untraced wall_s). */
void addLayerMetrics(Report &report, const SpanLog &log,
                     const SimTotals &totals, std::uint64_t verifyChecks,
                     double overheadS);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HH
