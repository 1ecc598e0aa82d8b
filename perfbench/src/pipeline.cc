#include "pipeline.hh"

#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "analysis/criticality.hh"
#include "analysis/miner.hh"
#include "bpu/bpu.hh"
#include "compiler/passes.hh"
#include "cpu/cpu.hh"
#include "energy/energy.hh"
#include "program/emit.hh"
#include "program/walker.hh"
#include "runner/orchestrator.hh"
#include "runner/thread_pool.hh"
#include "spans.hh"
#include "support/rng.hh"
#include "verify/structural.hh"
#include "workload/synth.hh"

namespace perfbench
{

namespace
{

using sim::Transform;

/** Transforms that select mined CritICs (AppExperiment's
 *  selectChains callers). */
bool
selectsChains(Transform t)
{
    return t == Transform::Hoist || t == Transform::CritIc ||
           t == Transform::CritIcIdeal || t == Transform::Opp16PlusCritIc;
}

bool
needsCritSet(const sim::Variant &v)
{
    return v.aluPrio || v.backendPrio || v.criticalLoadPrefetch;
}

/** The analysis products one variant reads. */
struct Products
{
    const analysis::FanoutInfo *fanout = nullptr;
    const analysis::MineResult *mined = nullptr;
    const std::unordered_set<program::InstUid> *critSet = nullptr;
};

/** Analysis of a freshly built app through the free functions, with
 *  the same laziness as AppExperiment's accessors. */
class FreshAnalysis
{
  public:
    FreshAnalysis(const program::Program &prog, const program::Trace &trace,
                  const analysis::CriticalityConfig &crit)
        : prog_(prog), trace_(trace), crit_(crit)
    {
    }

    const analysis::FanoutInfo &
    fanout()
    {
        if (!fanout_)
            fanout_ = analysis::computeFanout(trace_, crit_);
        return *fanout_;
    }

    const analysis::DynChains &
    chains()
    {
        if (!chains_)
            chains_ = analysis::extractChains(trace_, fanout(), crit_);
        return *chains_;
    }

    const analysis::LocTable &
    locTable()
    {
        if (!locs_)
            locs_.emplace(prog_);
        return *locs_;
    }

    /** One job mines at one fraction. */
    const analysis::MineResult &
    minedAt(double fraction)
    {
        if (!mined_)
            mined_ = analysis::mineCritIcs(trace_, prog_, chains(), fanout(),
                                           crit_, fraction, &locTable());
        return *mined_;
    }

    const std::unordered_set<program::InstUid> &
    criticalSet()
    {
        if (!critSet_)
            critSet_ = analysis::buildCriticalSet(trace_, fanout());
        return *critSet_;
    }

  private:
    const program::Program &prog_;
    const program::Trace &trace_;
    const analysis::CriticalityConfig &crit_;
    std::optional<analysis::FanoutInfo> fanout_;
    std::optional<analysis::DynChains> chains_;
    std::optional<analysis::LocTable> locs_;
    std::optional<analysis::MineResult> mined_;
    std::optional<std::unordered_set<program::InstUid>> critSet_;
};

/** The accessor calls run(variant) makes, one span each.  `Source`
 *  is an AppExperiment or a FreshAnalysis. */
template <class Source>
Products
acquire(Source &src, const sim::Variant &v, double defaultFraction)
{
    Products p;
    if (v.transform == Transform::None) {
        SpanScope span("analysis.fanout");
        p.fanout = &src.fanout();
    }
    if (selectsChains(v.transform)) {
        {
            SpanScope span("analysis.fanout");
            src.fanout();
        }
        {
            SpanScope span("analysis.chains");
            src.chains();
        }
        {
            SpanScope span("analysis.loctable");
            src.locTable();
        }
        SpanScope span("analysis.mine");
        p.mined = &src.minedAt(v.profileFraction.value_or(defaultFraction));
    }
    if (needsCritSet(v)) {
        SpanScope span("analysis.fanout");
        p.critSet = &src.criticalSet();
    }
    return p;
}

/** AppExperiment::applyTransform's pass dispatch. */
compiler::PassStats
applyPass(program::Program &prog, const sim::Variant &v,
          const std::vector<std::vector<program::InstUid>> &chains)
{
    compiler::CritIcPassOptions opt;
    opt.switchMode = v.switchMode;
    switch (v.transform) {
      case Transform::None:
        return {};
      case Transform::Hoist:
        opt.convertToThumb = false;
        opt.switchMode = compiler::SwitchMode::None;
        return compiler::applyCritIcPass(prog, chains, opt);
      case Transform::CritIc:
        return compiler::applyCritIcPass(prog, chains, opt);
      case Transform::CritIcIdeal:
        opt.forceConvert = true;
        return compiler::applyCritIcPass(prog, chains, opt);
      case Transform::Opp16:
        return compiler::applyOpp16Pass(prog, 3);
      case Transform::Compress:
        return compiler::applyCompressPass(prog);
      case Transform::Opp16PlusCritIc: {
        compiler::PassStats pass =
            compiler::applyCritIcPass(prog, chains, opt);
        const compiler::PassStats opp = compiler::applyOpp16Pass(prog, 3);
        pass.instsConverted += opp.instsConverted;
        pass.instsExpanded += opp.instsExpanded;
        pass.cdpsInserted += opp.cdpsInserted;
        return pass;
      }
    }
    return {};
}

/** Everything run(variant) does after the analysis accessors. */
sim::RunResult
simulateVariant(const runner::JobSpec &spec, const program::Program &base,
                const program::ControlPath &path,
                const program::Trace &baseTrace, const Products &p,
                SimTotals &totals)
{
    const sim::Variant &v = spec.variant;
    sim::RunResult result;
    program::Trace transformed;
    const program::Trace *trace = &baseTrace;
    if (v.transform != Transform::None) {
        program::Program prog = base;
        analysis::Selection selection;
        if (p.mined != nullptr) {
            SpanScope span("analysis.select");
            analysis::SelectOptions sel;
            sel.maxLen = v.maxChainLen;
            sel.exactLen = v.exactChainLen;
            sel.ideal = v.transform == Transform::CritIcIdeal;
            selection = analysis::selectCritIcs(*p.mined, sel);
            result.selectionCoverage = selection.expectedCoverage;
        }
        {
            SpanScope span("compiler.pass");
            result.pass = applyPass(prog, v, selection.chains);
        }
        result.staticThumbFraction = prog.thumbFraction();
        {
            SpanScope span("verify.structural");
            verify::Report report;
            verify::StructuralOptions options;
            options.idealThumb = v.transform == Transform::CritIcIdeal;
            verify::verifyStructure(prog, report, options);
            if (!report.clean())
                throw std::runtime_error("structural verification failed "
                                         "on " + spec.profile.name + "/" +
                                         v.label);
        }
        {
            SpanScope span("program.reemit");
            transformed = program::emitTrace(prog, path);
        }
        trace = &transformed;
        result.dynThumbFraction = transformed.dynThumbFraction();
    } else {
        result.staticThumbFraction = base.thumbFraction();
        result.dynThumbFraction = baseTrace.dynThumbFraction();
    }

    cpu::CpuConfig cpuCfg;
    cpuCfg.warmupCommits = static_cast<std::uint64_t>(
        static_cast<double>(trace->size()) * spec.options.warmupFraction);
    if (v.doubleFrontend)
        cpuCfg.doubleFrontend();
    cpuCfg.aluPrioritization = v.aluPrio;
    cpuCfg.backendPrio = v.backendPrio;
    cpuCfg.criticalLoadPrefetch = v.criticalLoadPrefetch;
    cpuCfg.efetch = v.efetch;

    mem::MemConfig memCfg;
    if (v.icache4x)
        memCfg.icache.sizeBytes *= 4;

    std::unique_ptr<bpu::BranchPredictor> predictor;
    if (v.perfectBranch)
        predictor = std::make_unique<bpu::PerfectPredictor>();
    else
        predictor = std::make_unique<bpu::TwoLevelPredictor>();

    const std::vector<std::uint8_t> *mask =
        v.transform == Transform::None ? &p.fanout->critMask : nullptr;
    {
        SpanScope span("cpu.sim", suiteTag(spec.profile));
        result.cpu = cpu::runTrace(*trace, cpuCfg, memCfg, *predictor, mask,
                                   p.critSet);
    }
    result.energy = energy::computeEnergy(result.cpu);
    totals.add(spec.profile, result.cpu);
    return result;
}

struct ExecutorState
{
    explicit ExecutorState(SimTotals &t) : totals(t) {}

    SimTotals &totals;
    std::mutex lock; ///< guards appLocks
    std::map<const sim::AppExperiment *, std::unique_ptr<std::mutex>>
        appLocks;

    std::mutex &
    appLock(const sim::AppExperiment &exp)
    {
        std::lock_guard<std::mutex> guard(lock);
        auto &slot = appLocks[&exp];
        if (!slot)
            slot = std::make_unique<std::mutex>();
        return *slot;
    }
};

struct Built
{
    program::Program prog;
    program::ControlPath path;
    program::Trace trace;
};

/** AppExperiment's constructor, one span per call. */
Built
build(const workload::AppProfile &profile,
      const sim::ExperimentOptions &options)
{
    Built b;
    {
        SpanScope span("workload.synth");
        b.prog = workload::synthesize(profile);
    }
    {
        SpanScope span("program.walk");
        Rng walkRng(streamSeed(profile.seed, RngStream::Walk));
        program::WalkLimits limits;
        limits.targetInsts = options.traceInsts;
        b.path = program::walkProgram(b.prog, walkRng, limits);
    }
    SpanScope span("program.emit");
    b.trace = program::emitTrace(b.prog, b.path);
    return b;
}

} // namespace

void
SimTotals::add(const workload::AppProfile &profile,
               const cpu::CpuStats &stats)
{
    const int k = profile.suite == workload::Suite::Mobile ? 0 : 1;
    cycles[k].fetch_add(stats.cycles, std::memory_order_relaxed);
    insts[k].fetch_add(stats.committed, std::memory_order_relaxed);
}

Executor
tracedExecutor(SimTotals &totals)
{
    auto state = std::make_shared<ExecutorState>(totals);
    return [state](const runner::JobSpec &spec, sim::AppExperiment &exp) {
        SpanScope job("job");
        Products p;
        {
            std::lock_guard<std::mutex> guard(state->appLock(exp));
            p = acquire(exp, spec.variant, spec.options.profileFraction);
        }
        return simulateVariant(spec, exp.baseProgram(), exp.path(),
                               exp.baseTrace(), p, state->totals);
    };
}

sim::RunResult
tracedFreshJob(const runner::JobSpec &spec, SimTotals &totals)
{
    SpanScope job("job");
    const Built b = build(spec.profile, spec.options);
    FreshAnalysis src(b.prog, b.trace, spec.options.crit);
    const Products p =
        acquire(src, spec.variant, spec.options.profileFraction);
    return simulateVariant(spec, b.prog, b.path, b.trace, p, totals);
}

std::unique_ptr<runner::Runner>
makeRunner(const std::string &dir, Executor executor)
{
    runner::RunnerOptions ro;
    ro.cachePath = dir + "/results.jsonl";
    ro.writeManifest = false;
    ro.progress = false;
    ro.executor = std::move(executor);
    return std::make_unique<runner::Runner>(ro);
}

void
buildExperiments(runner::Runner &runner,
                 const std::vector<workload::AppProfile> &apps,
                 const sim::ExperimentOptions &options, bool traced)
{
    runner::ThreadPool::shared().forEach(apps.size(), [&](std::size_t i) {
        if (traced) {
            SpanScope root("build");
            build(apps[i], options);
        }
        runner.experiment(apps[i], options);
    });
}

void
addLayerMetrics(Report &report, const SpanLog &log, const SimTotals &totals,
                std::uint64_t verifyChecks, double overheadS)
{
    const auto layers = log.layers();
    auto layer = [&](const std::string &name) {
        const auto it = layers.find(name);
        return it == layers.end() ? SpanLog::Layer{} : it->second;
    };
    for (const char *name :
         {"workload.synth", "program.walk", "program.emit", "analysis.fanout",
          "analysis.chains", "analysis.loctable", "analysis.mine",
          "analysis.select", "compiler.pass",
          "verify.structural", "program.reemit", "cpu.sim"}) {
        const SpanLog::Layer l = layer(name);
        report.add(std::string(name) + "_ms", l.selfMs, "ms", l.calls,
                   Kind::Layer);
        report.add(std::string(name) + ".calls",
                   static_cast<double>(l.calls), "count", 0, Kind::Layer);
    }
    const SpanLog::Layer job = layer("job");
    report.add("job.self_ms", job.selfMs, "ms", job.calls, Kind::Info);

    const std::uint64_t cycles[2] = {totals.cycles[0], totals.cycles[1]};
    const std::uint64_t insts[2] = {totals.insts[0], totals.insts[1]};
    report.add("cpu.sim_cycles", static_cast<double>(cycles[0] + cycles[1]),
               "count", 0, Kind::Layer);
    report.add("cpu.sim_insts", static_cast<double>(insts[0] + insts[1]),
               "count", 0, Kind::Layer);
    auto perUnit = [](double ms, std::uint64_t n) {
        return n ? ms * 1e6 / static_cast<double>(n) : 0.0;
    };
    const double simMs = layer("cpu.sim").selfMs;
    report.add("cpu.ns_per_inst", perUnit(simMs, insts[0] + insts[1]), "ns",
               0, Kind::Layer);
    report.add("cpu.ns_per_cycle", perUnit(simMs, cycles[0] + cycles[1]),
               "ns", 0, Kind::Layer);
    const char *tags[2] = {"mobile", "spec"};
    for (int k = 0; k < 2; ++k) {
        const SpanLog::Layer l = layer(std::string("cpu.sim.") + tags[k]);
        const std::string suffix = std::string(".") + tags[k];
        report.add("cpu.sim_ms" + suffix, l.selfMs, "ms", l.calls,
                   Kind::Layer);
        report.add("cpu.ns_per_inst" + suffix, perUnit(l.selfMs, insts[k]),
                   "ns", 0, Kind::Layer);
        report.add("cpu.ns_per_cycle" + suffix,
                   perUnit(l.selfMs, cycles[k]), "ns", 0, Kind::Layer);
    }
    report.add("verify.checks", static_cast<double>(verifyChecks), "count",
               0, Kind::Layer);
    report.add("trace.overhead_s", overheadS, "s", 1, Kind::Layer);
}

} // namespace perfbench
