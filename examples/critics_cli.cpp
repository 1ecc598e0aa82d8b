/**
 * @file
 * Command-line driver for the experiment orchestrator: sweeps through
 * the runner (`run`), the tracked microbench (`bench`), manifests and
 * the result store (`report`, `cache`), the regression harness
 * (`diff`), the static-analysis gate (`lint`), the serve daemon and
 * its clients (`serve`, `submit`, `status`, `wait`, `top`) and profile
 * reports (`prof`).  Without a command it runs one app/variant pair:
 *   critics_cli --app Acrobat --variant critic [--json]
 *
 * Each command declares its flags as one table (support/flags.hh);
 * `critics_cli --help` lists the commands and `critics_cli <cmd>
 * --help` prints that command's rows.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/criticality.hh"
#include "analysis/miner.hh"
#include "obs/obs.hh"
#include "obs/profiler.hh"
#include "program/emit.hh"
#include "runner/manifest.hh"

#include "runner/cache_admin.hh"
#include "runner/orchestrator.hh"
#include "sim/experiment.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/worker.hh"
#include "sim/report.hh"
#include "sim/variants.hh"
#include "stats/diff.hh"
#include "stats/interval.hh"
#include "stats/registry.hh"
#include "stats/trace_event.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/parse.hh"
#include "support/table.hh"
#include "verify/trace_check.hh"
#include "verify/verify.hh"

using namespace critics;

namespace
{

using sim::parseApps;
using sim::parseVariants;

// ---------------------------------------------------------------------------
// diff: the regression harness.

/** Flat registry snapshot of one run's metrics. */
stats::Snapshot
snapshotOf(const sim::RunResult &result)
{
    stats::StatRegistry reg;
    sim::bindRunResult(reg, result);
    return reg.snapshot();
}

/**
 * Load one diff side as app/variant → RunResult.  A side is either a
 * run manifest (results resolved from `storePath` by job hash) or a
 * result-store JSONL file.  Matching is by app/variant, not hash, so
 * runs of the same specs across a config or code change stay
 * comparable even though every content hash moved.
 */
std::map<std::string, sim::RunResult>
loadDiffSide(const std::string &path, const std::string &storePath)
{
    std::map<std::string, sim::RunResult> side;
    runner::RunManifest manifest;
    if (runner::RunManifest::read(path, manifest) &&
        !manifest.batch.empty()) {
        std::map<std::string, sim::RunResult> byHash;
        for (auto &record : runner::readResultRecords(storePath))
            byHash.emplace(record.hash, std::move(record.result));
        for (const auto &job : manifest.jobs) {
            if (!job.ok)
                continue;
            const auto it = byHash.find(job.hash);
            if (it == byHash.end()) {
                // Leaves the job on one side only, which the caller
                // reports as a mismatch.
                critics_warn("no stored result for ", job.app, "/",
                             job.variant, " (hash ", job.hash,
                             ") in ", storePath);
                continue;
            }
            side[job.app + "/" + job.variant] = it->second;
        }
        return side;
    }
    for (auto &record : runner::readResultRecords(path))
        side[record.app + "/" + record.variant] =
            std::move(record.result);
    if (side.empty()) {
        critics_fatal("'", path, "' holds no results (expected a run ",
                      "manifest or a result-store JSONL file)");
    }
    return side;
}

int
cmdDiff(int argc, char **argv)
{
    stats::DiffOptions opt;
    std::string storePath;
    std::vector<std::string> paths;
    const flags::Table rows = {
        flags::decimal("--rel", "<frac>", "relative noise threshold",
                       opt.relThreshold),
        flags::decimal("--abs", "<eps>", "absolute noise floor",
                       opt.absThreshold),
        flags::text("--store", "<file>",
                    "result store for manifest sides (default: cache)",
                    storePath),
    };
    flags::parseFlags("critics_cli diff", rows, argc, argv,
                      {"<before> <after>", 2, 2, &paths});
    if (storePath.empty())
        storePath = runner::cacheDir() + "/results.jsonl";

    const auto before = loadDiffSide(paths[0], storePath);
    const auto after = loadDiffSide(paths[1], storePath);

    std::size_t compared = 0, regressedJobs = 0, regressedMetrics = 0;
    bool mismatch = false;
    for (const auto &[key, beforeResult] : before) {
        const auto it = after.find(key);
        if (it == after.end()) {
            std::printf("%s: only in %s\n", key.c_str(),
                        paths[0].c_str());
            mismatch = true;
            continue;
        }
        ++compared;
        const auto diff = stats::diffSnapshots(
            snapshotOf(beforeResult), snapshotOf(it->second), opt);
        if (!diff.hasRegressions())
            continue;
        if (diff.regressions() > 0) {
            ++regressedJobs;
            regressedMetrics += diff.regressions();
            std::printf("%s: %zu metric(s) beyond noise "
                        "(rel %g, abs %g)\n",
                        key.c_str(), diff.regressions(),
                        opt.relThreshold, opt.absThreshold);
            for (const auto &d : diff.worst(diff.deltas.size())) {
                if (!d.regression)
                    break;
                std::printf("  %-34s %.6g -> %.6g  (%+.2f%%)\n",
                            d.name.c_str(), d.before, d.after,
                            (d.after >= d.before ? 1.0 : -1.0) *
                                d.relDelta * 100.0);
            }
        }
        for (const auto &name : diff.onlyBefore) {
            std::printf("%s: stat %s vanished\n", key.c_str(),
                        name.c_str());
            mismatch = true;
        }
        for (const auto &name : diff.onlyAfter) {
            std::printf("%s: stat %s appeared\n", key.c_str(),
                        name.c_str());
            mismatch = true;
        }
    }
    for (const auto &[key, result] : after) {
        (void)result;
        if (before.find(key) == before.end()) {
            std::printf("%s: only in %s\n", key.c_str(),
                        paths[1].c_str());
            mismatch = true;
        }
    }

    std::printf("diff: %zu job(s) compared, %zu regressed "
                "(%zu metric(s))%s\n",
                compared, regressedJobs, regressedMetrics,
                mismatch ? ", job/stat sets mismatch" : "");
    return (regressedMetrics > 0 || mismatch) ? 1 : 0;
}

// ---------------------------------------------------------------------------
// lint: the static-analysis gate.

int
cmdLint(int argc, char **argv)
{
    std::string appsArg = "mobile";
    std::string variantsArg = "all";
    std::uint64_t insts = 400000;
    unsigned minRun = 3;
    bool withTrace = false;
    std::string outPath = "lint_report.json";
    const flags::Table rows = flags::join({
        sim::gridFlags(appsArg, variantsArg, insts),
        {
            flags::integer("--min-run", "<n>",
                           "unconverted-run lint threshold", minRun),
            flags::toggle("--trace", "also check re-emitted traces",
                          withTrace),
            flags::text("--out", "<file>", "JSON report path", outPath),
        },
    });
    flags::parseFlags("critics_cli lint", rows, argc, argv);

    const auto apps = parseApps(appsArg);
    const auto variants = parseVariants(variantsArg);

    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = insts;

    json::JsonWriter w;
    w.beginObject();
    // Schema history: 1 = original report; 2 = adds this version
    // field's contract plus `totals.codes` (per-diagnostic-code counts)
    // and the optional per-variant `trace` object, so CI greps match on
    // structure and code identity instead of message text.
    w.field("schema", 2);
    w.field("tool", "critics_cli lint");
    w.field("trace", withTrace);
    w.beginArray("apps");

    std::size_t totalErrors = 0, totalWarnings = 0, totalAdvice = 0;
    std::map<std::string, std::uint64_t> totalCodes;
    Table table({"app", "variant", "errors", "warnings", "advice"});

    for (const auto &profile : apps) {
        sim::AppExperiment exp(profile, expOptions);
        verify::TraceCheckOptions traceOptions;
        traceOptions.biasVocabulary =
            workload::branchBiasVocabulary(profile);
        w.elementObject();
        w.field("app", profile.name);
        w.beginArray("variants");
        for (const auto &variant : variants) {
            const std::string &name = variant.label;
            verify::PassAudit audit;

            w.elementObject();
            w.field("variant", name);
            if (withTrace) {
                const sim::MaterializedTransform m =
                    exp.materializeTransform(variant, &audit);
                verify::lintAdvisories(m.prog, audit.report, minRun);
                const verify::TraceCheckStats ts =
                    verify::checkTraceConformance(
                        m.prog, m.trace, audit.report, traceOptions);
                w.beginObject("trace");
                w.field("blocksReplayed", ts.blocksReplayed);
                w.field("transitionsChecked", ts.transitionsChecked);
                w.field("branchSitesTested", ts.branchSitesTested);
                w.field("conformant", ts.conformant);
                w.endObject();
            } else {
                program::Program prog = exp.baseProgram();
                exp.applyTransform(prog, variant, nullptr, &audit);
                verify::lintAdvisories(prog, audit.report, minRun);
            }
            audit.report.writeJson(w);
            w.endObject();

            for (const auto &[code, count] :
                 audit.report.codeCounts()) {
                totalCodes[code] += count;
            }
            totalErrors += audit.report.errors();
            totalWarnings += audit.report.warnings();
            totalAdvice += audit.report.advice();
            table.addRow({profile.name, name,
                          std::to_string(audit.report.errors()),
                          std::to_string(audit.report.warnings()),
                          std::to_string(audit.report.advice())});
            // Errors are simulator bugs: show them right away, capped
            // by the report's own per-code stored limit.
            for (const auto &d : audit.report.diags()) {
                if (d.severity == verify::Severity::Error) {
                    std::printf("%s/%s: %s\n", profile.name.c_str(),
                                name.c_str(), d.render().c_str());
                }
            }
        }
        w.endArray();
        w.endObject();
    }

    w.endArray();
    w.beginObject("totals");
    w.field("errors", static_cast<std::uint64_t>(totalErrors));
    w.field("warnings", static_cast<std::uint64_t>(totalWarnings));
    w.field("advice", static_cast<std::uint64_t>(totalAdvice));
    w.beginObject("codes");
    for (const auto &[code, count] : totalCodes)
        w.field(code.c_str(), count);
    w.endObject();
    w.endObject();
    w.field("clean", totalErrors == 0);
    w.endObject();

    std::ofstream out(outPath, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 2;
    }
    out << w.str() << "\n";

    std::printf("%s\n", table.render().c_str());
    std::printf("lint: %zu app(s) x %zu variant(s): %zu error(s), "
                "%zu warning(s), %zu advisor%s\nreport: %s\n",
                apps.size(), variants.size(), totalErrors,
                totalWarnings, totalAdvice,
                totalAdvice == 1 ? "y" : "ies", outPath.c_str());
    return totalErrors > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// bench: the tracked simulator microbenchmark.

/** One stage's timings across repetitions. */
struct StageSamples
{
    std::vector<double> instsPerSec; ///< one entry per repetition

    double
    median() const
    {
        if (instsPerSec.empty())
            return 0.0;
        std::vector<double> sorted = instsPerSec;
        std::sort(sorted.begin(), sorted.end());
        return sorted[sorted.size() / 2];
    }
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Median insts/s of one stage of the last measurement in a
 *  BENCH_sim.json document; 0 when absent/unreadable. */
double
lastStageRate(const json::JsonValue &doc, const char *stage,
              std::string *label)
{
    const json::JsonValue *ms = doc.find("measurements");
    if (ms == nullptr || !ms->isArray() || ms->elements.empty())
        return 0.0;
    const json::JsonValue &last = ms->elements.back();
    if (label != nullptr) {
        if (const auto *l = last.find("label"))
            *label = l->asString().value_or("");
    }
    const json::JsonValue *stages = last.find("stages");
    if (stages == nullptr)
        return 0.0;
    const json::JsonValue *s = stages->find(stage);
    if (s == nullptr)
        return 0.0;
    if (const auto *rate = s->find("medianInstsPerSec"))
        return rate->asDouble().value_or(0.0);
    return 0.0;
}

int
cmdBench(int argc, char **argv)
{
    // The fixed matrix: stable across releases so the recorded
    // trajectory stays comparable.  --quick shrinks what is not given.
    bool quick = false;
    std::string appsArg = "Acrobat,Angrybirds,Office,Browser";
    std::string variantsArg = "baseline,critic,opp16,allhw";
    std::uint64_t insts = 400000;
    unsigned reps = 5;
    std::string label = "full";
    std::string baselinePath, profilePath;
    std::string outPath = "BENCH_sim.json";
    const flags::Table rows = flags::join({
        {flags::toggle("--quick", "small matrix and 3 reps", quick)},
        sim::gridFlags(appsArg, variantsArg, insts),
        {
            flags::integer("--reps", "<n>", "repetitions", reps, 1),
            flags::text("--label", "<text>", "measurement label", label),
            flags::text("--out", "<file>", "trajectory file", outPath),
            flags::text("--baseline", "<file>",
                        "print per-stage deltas vs this file's last "
                        "measurement",
                        baselinePath),
            flags::text("--profile", "<file>", "write a sampling profile",
                        profilePath),
        },
    });
    const auto parsed =
        flags::parseFlags("critics_cli bench", rows, argc, argv);
    if (quick) {
        if (!parsed.has("--apps"))
            appsArg = "Acrobat,Office";
        if (!parsed.has("--variants"))
            variantsArg = "baseline,critic";
        if (!parsed.has("--insts"))
            insts = 150000;
        if (!parsed.has("--reps"))
            reps = 3;
        if (!parsed.has("--label"))
            label = "quick";
    }

    const auto apps = parseApps(appsArg);
    const auto variants = parseVariants(variantsArg);

    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = insts;

    // One experiment per app, built untimed: synthesis and the control
    // walk are one-time costs the paper sweeps never repeat.
    std::vector<std::unique_ptr<sim::AppExperiment>> exps;
    std::uint64_t matrixInsts = 0;
    for (const auto &profile : apps) {
        exps.push_back(
            std::make_unique<sim::AppExperiment>(profile, expOptions));
        matrixInsts += exps.back()->baseTrace().size();
    }

    // --profile: sample the timed stages (construction above is the
    // one-time untimed cost).  The explicit StageScopes below mirror
    // the bench's own stage split, because stage 2 calls the analysis
    // passes directly rather than through AppExperiment's accessors.
    obs::SamplingProfiler profiler;
    if (!profilePath.empty() && !profiler.start())
        profilePath.clear();

    StageSamples emitStage, analyzeStage, simulateStage;
    for (unsigned rep = 0; rep < reps; ++rep) {
        // Stage 1: trace emission (the per-variant re-emission cost).
        auto t0 = std::chrono::steady_clock::now();
        {
            obs::StageScope stage(obs::Stage::Emit);
            for (const auto &exp : exps) {
                const program::Trace trace = program::emitTrace(
                    exp->baseProgram(), exp->path());
                critics_assert(trace.size() > 0, "empty bench trace");
            }
        }
        emitStage.instsPerSec.push_back(
            static_cast<double>(matrixInsts) / secondsSince(t0));

        // Stage 2: offline criticality analysis (fanout, chains,
        // mining), always from scratch so result caching cannot hide
        // cost.  The per-app location table IS shared across reps —
        // it indexes the static program, not the dynamic stream, and
        // AppExperiment likewise builds one and shares it across all
        // minedAt() calls, so rebuilding it per rep would bill the
        // pipeline for work production never repeats.
        t0 = std::chrono::steady_clock::now();
        {
            obs::StageScope stage(obs::Stage::Analyze);
            for (const auto &exp : exps) {
                const auto fanout = analysis::computeFanout(
                    exp->baseTrace(), expOptions.crit);
                const auto chains = analysis::extractChains(
                    exp->baseTrace(), fanout, expOptions.crit);
                analysis::mineCritIcs(exp->baseTrace(),
                                      exp->baseProgram(), chains, fanout,
                                      expOptions.crit,
                                      expOptions.profileFraction,
                                      &exp->locTable());
            }
        }
        analyzeStage.instsPerSec.push_back(
            static_cast<double>(matrixInsts) / secondsSince(t0));

        // Stage 3: the simulate-one-job path, exactly as the runner
        // drives it (transform + re-emission/memo + pipeline model).
        t0 = std::chrono::steady_clock::now();
        std::uint64_t simInsts = 0;
        for (const auto &exp : exps) {
            for (const auto &variant : variants) {
                const auto result = exp->run(variant);
                critics_assert(result.cpu.cycles > 0, "empty run");
                simInsts += exp->baseTrace().size();
            }
        }
        simulateStage.instsPerSec.push_back(
            static_cast<double>(simInsts) / secondsSince(t0));
    }

    if (!profilePath.empty()) {
        profiler.stop();
        const std::string report = profiler.reportJson();
        if (profiler.writeReport(profilePath))
            std::printf("profile: %s\n", profilePath.c_str());
        obs::printProfileReport(report);
    }

    // ---- Report ------------------------------------------------------
    Table table({"stage", "median insts/s", "min", "max"});
    auto addRow = [&](const char *name, const StageSamples &s) {
        const auto [lo, hi] = std::minmax_element(
            s.instsPerSec.begin(), s.instsPerSec.end());
        table.addRow({name, fmt(s.median(), 0), fmt(*lo, 0),
                      fmt(*hi, 0)});
    };
    addRow("emit", emitStage);
    addRow("analyze", analyzeStage);
    addRow("simulate", simulateStage);
    std::printf("%s\n", table.render().c_str());

    // ---- Persist the trajectory --------------------------------------
    // BENCH_sim.json accumulates measurements; the newest is appended
    // so the perf history of the simulator is recorded in-tree.
    double prevRate = 0.0;
    std::string prevLabel;

    json::JsonWriter w;
    w.beginObject();
    w.field("schema", 1);
    w.field("tool", "critics_cli bench");
    w.beginArray("measurements");

    // Copy prior measurements structurally (the writer re-serializes
    // the parsed document, then the new entry is appended).
    std::function<void(const json::JsonValue &, const char *)>
        copyMember;
    copyMember = [&](const json::JsonValue &v, const char *key) {
        switch (v.kind) {
          case json::JsonValue::Kind::Object:
            if (key)
                w.beginObject(key);
            else
                w.elementObject();
            for (const auto &[k, member] : v.members)
                copyMember(member, k.c_str());
            w.endObject();
            break;
          case json::JsonValue::Kind::Array:
            w.beginArray(key);
            for (const auto &el : v.elements)
                copyMember(el, nullptr);
            w.endArray();
            break;
          case json::JsonValue::Kind::String:
            if (key)
                w.field(key, v.text);
            else
                w.element(v.text);
            break;
          case json::JsonValue::Kind::Number:
            // Preserve the original spelling via a raw double/uint.
            if (v.text.find_first_of(".eE") == std::string::npos) {
                if (key)
                    w.field(key, v.asUint().value_or(0));
                else
                    w.element(static_cast<double>(
                        v.asDouble().value_or(0.0)));
            } else {
                if (key)
                    w.fieldReadable(key, v.asDouble().value_or(0.0));
                else
                    w.element(v.asDouble().value_or(0.0));
            }
            break;
          case json::JsonValue::Kind::Bool:
            if (key)
                w.field(key, v.boolean);
            break;
          case json::JsonValue::Kind::Null:
            break;
        }
    };
    // Snapshot the baseline before appending, so --out and --baseline
    // may name the same file (the new measurement never compares
    // against itself).
    std::string baselineText;
    if (!baselinePath.empty()) {
        std::ifstream in(baselinePath);
        if (in)
            baselineText.assign((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
    }
    {
        std::ifstream in(outPath);
        if (in) {
            const std::string text(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
            if (const auto doc = json::parseJson(text)) {
                prevRate = lastStageRate(*doc, "simulate", &prevLabel);
                if (const auto *ms = doc->find("measurements");
                    ms != nullptr && ms->isArray()) {
                    for (const auto &m : ms->elements)
                        copyMember(m, nullptr);
                }
            }
        }
    }

    w.elementObject();
    w.field("label", label);
    w.field("git", runner::gitDescribe());
    w.field("quick", quick);
    w.field("apps", appsArg);
    w.field("variants", variantsArg);
    w.field("insts", insts);
    w.field("reps", reps);
    w.beginObject("stages");
    auto writeStage = [&](const char *name, const StageSamples &s) {
        w.beginObject(name);
        w.fieldReadable("medianInstsPerSec", s.median());
        w.beginArray("perRep");
        for (const double r : s.instsPerSec)
            w.element(r);
        w.endArray();
        w.endObject();
    };
    writeStage("emit", emitStage);
    writeStage("analyze", analyzeStage);
    writeStage("simulate", simulateStage);
    w.endObject();
    w.endObject();
    w.endArray();
    w.endObject();

    std::ofstream out(outPath, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 2;
    }
    out << w.str() << "\n";
    std::printf("bench: %s (%s, %u rep(s), %s insts/app)\n",
                outPath.c_str(), label.c_str(), reps,
                fmt(double(insts), 0).c_str());

    // Delta against the previous in-file measurement, and optionally
    // against a committed baseline file (CI's non-gating perf-smoke).
    const double nowRate = simulateStage.median();
    if (prevRate > 0.0) {
        std::printf("simulate: %s insts/s vs %s insts/s (%s) -> %.2fx\n",
                    fmt(nowRate, 0).c_str(), fmt(prevRate, 0).c_str(),
                    prevLabel.c_str(), nowRate / prevRate);
    }
    if (!baselinePath.empty()) {
        if (!baselineText.empty()) {
            const std::string &text = baselineText;
            std::string baseLabel;
            bool any = false;
            if (const auto doc = json::parseJson(text)) {
                const struct
                {
                    const char *name;
                    const StageSamples *samples;
                } deltas[] = {{"emit", &emitStage},
                              {"analyze", &analyzeStage},
                              {"simulate", &simulateStage}};
                for (const auto &d : deltas) {
                    const double baseRate =
                        lastStageRate(*doc, d.name, &baseLabel);
                    if (baseRate <= 0.0)
                        continue;
                    any = true;
                    std::printf(
                        "%-8s vs baseline %s (%s): %.2fx\n", d.name,
                        baselinePath.c_str(), baseLabel.c_str(),
                        d.samples->median() / baseRate);
                }
            }
            if (!any) {
                std::printf("baseline %s: no stage rates found\n",
                            baselinePath.c_str());
            }
        } else {
            std::printf("baseline %s: unreadable\n",
                        baselinePath.c_str());
        }
    }
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    std::string appsArg = "mobile";
    std::string variantsArg = "baseline,critic";
    std::string batchName = "cli";
    std::uint64_t insts = 400000;
    std::uint64_t statsInterval = 0;
    std::string statsOut = "stats_cli.jsonl";
    std::string traceOut, profilePath;
    bool json = false, noCache = false;
    runner::RunnerOptions options;
    const flags::Table rows = flags::join({
        sim::gridFlags(appsArg, variantsArg, insts),
        {
            flags::text("--batch", "<name>", "manifest name", batchName),
            flags::toggle("--no-cache", "bypass the result cache",
                          noCache),
            flags::toggle("--refresh", "ignore cached records",
                          options.refresh),
            flags::callback(
                "--shard", "K/N",
                "run slice K of an N-way partition into its own store",
                [&options](const std::string &value) {
                    const auto parsed = runner::ShardSpec::parse(value);
                    if (!parsed) {
                        critics_fatal("--shard wants K/N with 1 <= K <= "
                                      "N, got '", value, "'");
                    }
                    options.shard = *parsed;
                }),
            flags::text("--cache-file", "<file>", "result store path",
                        options.cachePath),
            flags::toggle("--json", "emit per-job result JSON", json),
            flags::integer("--stats-interval", "<n>",
                           "sample all stats every n insts (0: never)",
                           statsInterval),
            flags::text("--stats-out", "<file>", "interval JSONL path",
                        statsOut),
            flags::text("--trace-out", "<file>",
                        "Chrome trace of job and stage spans", traceOut),
            flags::text("--profile", "<file>", "write a sampling profile",
                        profilePath),
        },
    });
    flags::parseFlags("critics_cli run", rows, argc, argv);
    options.useCache = !noCache;

    const auto apps = parseApps(appsArg);
    const auto variants = parseVariants(variantsArg);

    // Each shard appends to its own disjoint store; `cache merge`
    // folds them back into the shared one.
    if (options.shard.enabled() && options.cachePath.empty()) {
        options.cachePath =
            runner::shardStorePath(runner::cacheDir(), options.shard);
    }

    sim::ExperimentOptions expOptions;
    expOptions.traceInsts = insts;

    stats::TraceEventWriter trace;
    if (!traceOut.empty()) {
        options.trace = &trace;
        // Route the pipeline's StageScope spans into the same writer.
        // Both clocks are CLOCK_MONOTONIC; re-basing on an epoch taken
        // here puts the stage spans on the runner's 0-based timeline,
        // nested under the job spans of the same pool thread.
        const std::uint64_t epochUs = obs::monotonicMicros();
        obs::setSpanSink([&trace, epochUs](const obs::SpanRecord &s) {
            trace.complete(s.name, s.category,
                           s.startUs > epochUs ? s.startUs - epochUs
                                               : 0,
                           s.durUs, 0, trace.tidForCurrentThread());
        });
    }

    // Interval sampling rides the executor: each simulated job runs
    // with its own series (cache hits never execute, so they produce
    // no rows) and files its JSONL under its label.  The rows are
    // written in grid order after the batch, so the file does not
    // depend on which job finished first.
    std::mutex statsLock;
    std::map<std::string, std::string> statsByLabel;
    if (statsInterval > 0) {
        options.executor = [&statsLock, &statsByLabel, statsInterval](
                               const runner::JobSpec &spec,
                               sim::AppExperiment &experiment) {
            sim::RunHooks hooks;
            stats::IntervalSeries series;
            hooks.statsInterval = statsInterval;
            hooks.intervals = &series;
            auto result = experiment.run(spec.variant, hooks);
            const std::string label =
                spec.profile.name + "/" + spec.variant.label;
            std::lock_guard<std::mutex> guard(statsLock);
            statsByLabel[label] = series.toJsonl(label);
            return result;
        };
    }

    obs::SamplingProfiler profiler;
    if (!profilePath.empty() && !profiler.start())
        profilePath.clear();

    runner::Runner runner(options);
    const auto batch = runner.run(
        batchName, runner::makeGrid(apps, variants, expOptions));

    obs::setSpanSink(nullptr);
    if (!profilePath.empty()) {
        profiler.stop();
        const std::string report = profiler.reportJson();
        if (profiler.writeReport(profilePath))
            std::printf("profile: %s\n", profilePath.c_str());
        obs::printProfileReport(report);
    }

    if (json) {
        for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
            if (batch.outcomes[i].ok) {
                std::printf("%s\n",
                            sim::toJson(batch.outcomes[i].result,
                                        batch.jobs[i].profile.name +
                                            "/" +
                                            batch.jobs[i].variant.label)
                                .c_str());
            }
        }
    } else if (options.shard.enabled()) {
        // A shard holds an arbitrary slice of the grid, so the
        // apps × variants speedup table cannot be filled in; list
        // the owned jobs instead and leave comparisons to a
        // post-merge `critics_cli diff`/report.
        for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
            const auto &job = batch.jobs[i];
            const auto &outcome = batch.outcomes[i];
            std::printf("%-12s %-16s %s\n", job.profile.name.c_str(),
                        job.variant.label.c_str(),
                        outcome.ok
                            ? (fmt(double(outcome.result.cpu.cycles),
                                   0) + " cyc").c_str()
                            : "FAILED");
        }
    } else {
        std::vector<std::string> header{"app"};
        for (const auto &variant : variants)
            header.push_back(variant.label);
        Table table(std::move(header));
        for (std::size_t a = 0; a < apps.size(); ++a) {
            std::vector<std::string> row{apps[a].name};
            for (std::size_t v = 0; v < variants.size(); ++v) {
                const std::size_t i = a * variants.size() + v;
                if (!batch.outcomes[i].ok) {
                    row.push_back("FAILED");
                } else if (v == 0) {
                    row.push_back(
                        fmt(double(batch.outcomes[i].result.cpu.cycles),
                            0) +
                        " cyc");
                } else {
                    row.push_back(gainPct(
                        batch.speedup(a * variants.size(), i)));
                }
            }
            table.addRow(std::move(row));
        }
        std::printf("%s\n", table.render().c_str());
    }
    std::printf("%s\n", batch.manifest.summaryLine().c_str());
    if (!batch.manifestPath.empty())
        std::printf("manifest: %s\n", batch.manifestPath.c_str());
    if (statsInterval > 0) {
        std::string statsJsonl;
        for (const auto &job : batch.jobs) {
            const auto it = statsByLabel.find(job.profile.name + "/" +
                                              job.variant.label);
            if (it != statsByLabel.end()) {
                statsJsonl += it->second;
                statsByLabel.erase(it); // a repeated label writes once
            }
        }
        if (statsJsonl.empty()) {
            std::printf("stats: no interval rows (every job came from "
                        "the cache; use --refresh)\n");
        } else {
            std::ofstream out(statsOut, std::ios::trunc);
            out << statsJsonl;
            std::printf("stats: %s\n", statsOut.c_str());
        }
    }
    if (!traceOut.empty() && trace.writeTo(traceOut)) {
        std::printf("trace: %s (%zu events)\n", traceOut.c_str(),
                    trace.size());
    }
    return batch.allOk() ? 0 : 1;
}

int
cmdReport(int argc, char **argv)
{
    std::vector<std::string> paths;
    flags::parseFlags("critics_cli report", {}, argc, argv,
                      {"[manifest.json ...]", 0, SIZE_MAX, &paths});
    if (paths.empty()) {
        const std::string dir = runner::cacheDir() + "/manifests";
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir, ec)) {
            if (entry.path().extension() == ".json")
                paths.push_back(entry.path().string());
        }
        std::sort(paths.begin(), paths.end());
        if (paths.empty()) {
            std::printf("no manifests under %s\n", dir.c_str());
            return 0;
        }
    }

    std::size_t failures = 0;
    bool interrupted = false;
    for (const auto &path : paths) {
        runner::RunManifest manifest;
        if (!runner::RunManifest::read(path, manifest)) {
            std::printf("%s: unreadable manifest\n", path.c_str());
            ++failures;
            continue;
        }
        std::printf("%s\n", manifest.summaryLine().c_str());
        interrupted = interrupted || manifest.interrupted;
        for (const auto &job : manifest.jobs) {
            if (!job.ok) {
                ++failures;
                std::printf("  FAILED %s/%s (%u attempts): %s\n",
                            job.app.c_str(), job.variant.c_str(),
                            job.attempts, job.error.c_str());
            }
        }
    }
    if (failures > 0 || interrupted) {
        std::printf("%zu failed job(s)%s\n", failures,
                    interrupted ? ", batch interrupted" : "");
        return 1;
    }
    return 0;
}

int
cmdCacheMerge(int argc, char **argv)
{
    std::vector<std::string> paths;
    flags::parseFlags("critics_cli cache merge", {}, argc, argv,
                      {"<out> <in...>", 2, SIZE_MAX, &paths});
    const std::string out = paths.front();
    paths.erase(paths.begin());
    const auto stats = runner::mergeStores(out, paths);
    if (!stats) {
        std::fprintf(stderr, "cache merge failed\n");
        return 1;
    }
    std::printf("merged %zu store(s) -> %s\n  %s\n", stats->filesRead,
                out.c_str(), stats->summary().c_str());
    return 0;
}

int
cmdCacheCompact(int argc, char **argv)
{
    std::vector<std::string> words;
    flags::parseFlags("critics_cli cache compact", {}, argc, argv,
                      {"[file]", 0, 1, &words});
    const std::string path = words.empty()
        ? runner::cacheDir() + "/results.jsonl" : words[0];
    const auto stats = runner::compactStore(path);
    if (!stats) {
        std::fprintf(stderr, "cache compact failed for %s\n",
                     path.c_str());
        return 1;
    }
    std::printf("compacted %s\n  %s\n", path.c_str(),
                stats->summary().c_str());
    return 0;
}

int
cmdCacheGc(int argc, char **argv)
{
    runner::GcOptions opt;
    std::vector<std::string> words;
    const flags::Table rows = {
        flags::scaled("--max-age", "<dur>",
                      "drop older records (30d, 12h, 15m, 900s or 900)",
                      opt.maxAgeSeconds,
                      {{'d', 86400}, {'h', 3600}, {'m', 60}, {'s', 1}}),
        flags::scaled("--max-bytes", "<n>",
                      "evict oldest past this size (2G, 512M, 512K, 512)",
                      opt.maxBytes,
                      {{'K', 1ull << 10}, {'k', 1ull << 10},
                       {'M', 1ull << 20}, {'m', 1ull << 20},
                       {'G', 1ull << 30}, {'g', 1ull << 30}}),
    };
    const std::string command = "critics_cli cache gc";
    flags::parseFlags(command, rows, argc, argv,
                      {"[file]", 0, 1, &words});
    if (opt.maxAgeSeconds == 0 && opt.maxBytes == 0)
        critics_fatal(command, ": wants --max-age and/or --max-bytes");
    const std::string path = words.empty()
        ? runner::cacheDir() + "/results.jsonl" : words[0];
    const auto stats = runner::gcStore(path, opt);
    if (!stats) {
        std::fprintf(stderr, "cache gc failed for %s\n", path.c_str());
        return 1;
    }
    std::printf("gc %s\n  %s\n", path.c_str(),
                stats->summary().c_str());
    return 0;
}

int
cmdCache(int argc, char **argv)
{
    const std::string action = argc > 0 ? argv[0] : "stats";
    if (action == "merge")
        return cmdCacheMerge(argc - 1, argv + 1);
    if (action == "compact")
        return cmdCacheCompact(argc - 1, argv + 1);
    if (action == "gc")
        return cmdCacheGc(argc - 1, argv + 1);
    flags::parseFlags("critics_cli cache", {}, argc, argv,
                      {"[stats|path|clear|merge|compact|gc]", 0, 1});
    runner::ResultStore store;
    if (action == "stats") {
        std::uintmax_t bytes = 0;
        std::error_code ec;
        bytes = std::filesystem::file_size(store.path(), ec);
        if (ec)
            bytes = 0;
        std::printf("cache: %s\n  records: %zu (schema v%d)\n"
                    "  size: %.1f KiB\n",
                    store.path().c_str(), store.size(),
                    runner::kResultSchemaVersion,
                    static_cast<double>(bytes) / 1024.0);
        return 0;
    }
    if (action == "path") {
        std::printf("%s\n", store.path().c_str());
        return 0;
    }
    if (action == "clear") {
        const std::size_t had = store.size();
        store.clear();
        std::printf("cleared %zu record(s) from %s\n", had,
                    store.path().c_str());
        return 0;
    }
    critics_fatal("critics_cli cache: unknown action '", action,
                  "' (see critics_cli cache --help)");
}

// ---------------------------------------------------------------------------
// serve / submit / status / wait: simulation as a service.

/** Atomic so the install/clear in cmdServe and the read in the signal
 *  handler never race (a plain pointer here is a data race the
 *  concurrency checks rightly reject). */
std::atomic<serve::Server *> gServeInstance{nullptr};

/** SIGTERM/SIGINT → graceful drain.  requestShutdown() is an atomic
 *  store plus a self-pipe write(), both async-signal-safe; the
 *  signal-handler check cannot see through the member call, hence the
 *  justification NOLINT. */
void
serveSignalHandler(int)
{
    serve::Server *server =
        gServeInstance.load(std::memory_order_acquire);
    if (server != nullptr)
        server->requestShutdown(); // NOLINT(bugprone-signal-handler)
}

/** This binary's path, for exec'ing serve-worker children. */
std::string
selfExecutable()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return "critics_cli"; // fall back to execvp's PATH lookup
}

/** The daemon-address rows: where serve listens and where its
 *  clients find it. */
flags::Table
addressFlags(std::string &host, unsigned short &port,
             std::string &portFile)
{
    return {
        flags::text("--host", "<ip>", "daemon address", host),
        flags::integer("--port", "<n>", "daemon port (serve: 0 picks one)",
                       port),
        flags::text("--port-file", "<file>",
                    "serve writes its port here, clients read it",
                    portFile),
    };
}

/** Where a client finds the daemon. */
struct DaemonAddress
{
    std::string host = "127.0.0.1";
    unsigned short port = 0;
    std::string portFile;

    flags::Table
    rows()
    {
        return addressFlags(host, port, portFile);
    }
};

bool
connectDaemon(serve::ServeClient &client, const DaemonAddress &address)
{
    unsigned short port = address.port;
    if (port == 0 && !address.portFile.empty()) {
        std::ifstream in(address.portFile);
        std::string text;
        if (in >> text) {
            if (const auto parsed = parseUnsigned(text, 65535))
                port = static_cast<unsigned short>(*parsed);
        }
    }
    if (port == 0) {
        std::fprintf(stderr,
                     "need --port <n> or --port-file <f> to find the "
                     "daemon\n");
        return false;
    }
    std::string error;
    if (!client.connect(address.host, port, &error)) {
        std::fprintf(stderr, "cannot connect: %s\n", error.c_str());
        return false;
    }
    return true;
}

/** Stream a job's events to stdout until its "done" line; exit code
 *  0 only when the batch finished with zero failed jobs. */
int
streamJob(serve::ServeClient &client, const std::string &jobId)
{
    serve::Request request;
    request.op = serve::Request::Op::Wait;
    request.job = jobId;
    if (!client.sendLine(serve::renderRequest(request)))
        return 1;
    for (;;) {
        const auto line = client.readLine(-1);
        if (!line) {
            std::fprintf(stderr,
                         "connection lost; the job keeps running — "
                         "`critics_cli wait %s` resumes the stream\n",
                         jobId.c_str());
            return 1;
        }
        std::printf("%s\n", line->c_str());
        std::fflush(stdout);
        const auto doc = json::parseJson(*line);
        if (!doc)
            continue;
        if (const auto *ok = doc->find("ok")) {
            if (ok->asBool() == false)
                return 1; // protocol error (e.g. unknown job)
        }
        const auto *event = doc->find("event");
        if (event != nullptr &&
            event->asString().value_or("") == "done") {
            const auto *state = doc->find("state");
            const auto *failed = doc->find("failed");
            const bool clean =
                state != nullptr &&
                state->asString().value_or("") == "done" &&
                failed != nullptr && failed->asUint().value_or(1) == 0;
            return clean ? 0 : 1;
        }
    }
}

int
cmdServe(int argc, char **argv)
{
    serve::ServerOptions options;
    std::string traceOut, statsOut;
    const flags::Table rows = flags::join({
        addressFlags(options.host, options.port, options.portFile),
        {
            flags::integer("--workers", "<n>",
                           "worker processes per batch (0: in-process)",
                           options.workers),
            flags::integer("--max-restarts", "<n>", "respawns per worker",
                           options.maxRestarts),
            flags::integer("--attempts", "<n>", "per-job attempt budget",
                           options.maxAttempts),
            flags::text("--cache-file", "<file>", "result store path",
                        options.cachePath),
            flags::text("--trace-out", "<file>",
                        "merged Chrome trace of server and worker spans",
                        traceOut),
            flags::text("--profile-dir", "<dir>",
                        "each worker writes a sampling profile here",
                        options.profileDir),
            flags::text("--stats-out", "<file>",
                        "serve.* stats JSON on shutdown", statsOut),
        },
    });
    flags::parseFlags("critics_cli serve", rows, argc, argv);
    options.workerExe = selfExecutable();

    stats::TraceEventWriter trace;
    if (!traceOut.empty())
        options.trace = &trace;

    serve::Server server(options);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "serve: %s\n", error.c_str());
        return 1;
    }

    stats::StatRegistry reg;
    server.registerStats(reg);

    gServeInstance = &server;
    std::signal(SIGTERM, serveSignalHandler);
    std::signal(SIGINT, serveSignalHandler);

    std::printf("serving on %s:%u (pid %d, %u worker(s))\n",
                options.host.c_str(), server.port(),
                static_cast<int>(::getpid()), options.workers);
    std::fflush(stdout);

    server.wait();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    gServeInstance = nullptr;

    if (!statsOut.empty()) {
        std::ofstream out(statsOut, std::ios::trunc);
        out << reg.toJson() << "\n";
    }
    if (!traceOut.empty() && trace.writeTo(traceOut)) {
        std::printf("trace: %s (%zu events)\n", traceOut.c_str(),
                    trace.size());
    }
    std::printf("serve: drained; %llu warm hit(s), %llu simulated, "
                "%llu failed, %llu worker restart(s)\n",
                static_cast<unsigned long long>(server.warmHits()),
                static_cast<unsigned long long>(server.simulated()),
                static_cast<unsigned long long>(server.failedJobs()),
                static_cast<unsigned long long>(
                    server.workerRestarts()));
    return 0;
}

int
cmdSubmit(int argc, char **argv)
{
    DaemonAddress address;
    bool noWait = false;
    serve::Request request;
    request.op = serve::Request::Op::Submit;
    serve::SubmitRequest &submit = request.submit;
    const flags::Table rows = flags::join({
        address.rows(),
        sim::gridFlags(submit.apps, submit.variants, submit.insts),
        {
            flags::text("--batch", "<name>", "batch name", submit.batch),
            flags::toggle("--refresh", "ignore cached records",
                          submit.refresh),
            flags::integer("--sleep-ms", "<n>", "delay after each job",
                           submit.sleepMs),
            flags::toggle("--no-wait", "print the job id and return",
                          noWait),
        },
    });
    flags::parseFlags("critics_cli submit", rows, argc, argv);

    serve::ServeClient client;
    if (!connectDaemon(client, address))
        return 1;
    if (!client.sendLine(serve::renderRequest(request)))
        return 1;
    const auto reply = client.readLine(-1);
    if (!reply) {
        std::fprintf(stderr, "daemon closed the connection\n");
        return 1;
    }
    std::printf("%s\n", reply->c_str());
    const auto doc = json::parseJson(*reply);
    if (!doc)
        return 1;
    const auto *ok = doc->find("ok");
    if (ok == nullptr || ok->asBool() != true)
        return 1;
    const auto *job = doc->find("job");
    const std::string jobId =
        job != nullptr ? job->asString().value_or("") : "";
    if (jobId.empty())
        return 1;
    if (noWait)
        return 0;
    return streamJob(client, jobId);
}

int
cmdStatus(int argc, char **argv)
{
    DaemonAddress address;
    std::vector<std::string> words;
    flags::parseFlags("critics_cli status", address.rows(), argc, argv,
                      {"<job>", 1, 1, &words});
    const std::string &jobId = words[0];
    serve::ServeClient client;
    if (!connectDaemon(client, address))
        return 1;
    serve::Request request;
    request.op = serve::Request::Op::Status;
    request.job = jobId;
    if (!client.sendLine(serve::renderRequest(request)))
        return 1;
    const auto reply = client.readLine(-1);
    if (!reply) {
        std::fprintf(stderr, "daemon closed the connection\n");
        return 1;
    }
    std::printf("%s\n", reply->c_str());
    const auto doc = json::parseJson(*reply);
    if (!doc)
        return 1;
    const auto *ok = doc->find("ok");
    return (ok != nullptr && ok->asBool() == true) ? 0 : 1;
}

int
cmdWait(int argc, char **argv)
{
    DaemonAddress address;
    std::vector<std::string> words;
    flags::parseFlags("critics_cli wait", address.rows(), argc, argv,
                      {"<job>", 1, 1, &words});
    const std::string &jobId = words[0];
    serve::ServeClient client;
    if (!connectDaemon(client, address))
        return 1;
    return streamJob(client, jobId);
}

// ---------------------------------------------------------------------------
// top: the live daemon monitor.

/** Numeric field of the stats reply's "serve" object (optionally one
 *  level deeper); 0 when absent. */
double
serveStat(const json::JsonValue &doc, const char *outer,
          const char *inner = nullptr)
{
    const json::JsonValue *node = doc.find("serve");
    if (node != nullptr)
        node = node->find(outer);
    if (node != nullptr && inner != nullptr)
        node = node->find(inner);
    return node != nullptr ? node->asDouble().value_or(0.0) : 0.0;
}

/** Microseconds → "980us" / "1.2ms" / "3.40s". */
std::string
fmtUs(double us)
{
    char buf[32];
    if (us >= 1e6)
        std::snprintf(buf, sizeof buf, "%.2fs", us / 1e6);
    else if (us >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1fms", us / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.0fus", us);
    return buf;
}

int
cmdTop(int argc, char **argv)
{
    DaemonAddress address;
    double interval = 2.0;
    bool once = false;
    const flags::Table rows = flags::join({
        address.rows(),
        {
            flags::decimal("--interval", "<sec>", "refresh period",
                           interval),
            flags::toggle("--once", "print one snapshot and exit", once),
        },
    });
    flags::parseFlags("critics_cli top", rows, argc, argv);
    if (interval <= 0.0)
        interval = 2.0;

    serve::ServeClient client;
    if (!connectDaemon(client, address))
        return 1;

    serve::Request request;
    request.op = serve::Request::Op::Stats;
    const std::string statsLine = serve::renderRequest(request);
    const bool tty = ::isatty(::fileno(stdout)) != 0;

    for (;;) {
        if (!client.sendLine(statsLine))
            return 1;
        const auto reply = client.readLine(-1);
        if (!reply) {
            std::fprintf(stderr, "daemon closed the connection\n");
            return 1;
        }
        const auto doc = json::parseJson(*reply);
        if (!doc || doc->find("serve") == nullptr) {
            std::fprintf(stderr, "malformed stats reply: %s\n",
                         reply->c_str());
            return 1;
        }
        // Home + clear keeps the panel in place between refreshes;
        // piped output just gets one panel per poll.
        if (!once && tty)
            std::printf("\x1b[H\x1b[2J");

        std::string runningBatch = "-";
        if (const auto *serve = doc->find("serve")) {
            if (const auto *batch = serve->find("runningBatch")) {
                const auto name = batch->asString().value_or("");
                if (!name.empty())
                    runningBatch = name;
            }
        }
        std::printf("critics serve @ %s — up %s\n", address.host.c_str(),
                    fmtUs(serveStat(*doc, "uptimeUs")).c_str());
        std::printf("%-16s %8.0f   %-16s %s\n", "queue depth",
                    serveStat(*doc, "queueDepth"), "running batch",
                    runningBatch.c_str());
        std::printf("%-16s %8.0f   %-16s %.0f\n", "active workers",
                    serveStat(*doc, "activeWorkers"),
                    "in-flight shards",
                    serveStat(*doc, "inFlightShards"));
        std::printf("%-16s %8.0f   %-16s %.1f%%\n", "warm hits",
                    serveStat(*doc, "warmHits"), "warm-hit ratio",
                    serveStat(*doc, "warmHitRatio") * 100.0);
        std::printf("%-16s %8.0f   %-16s %.0f\n", "simulated",
                    serveStat(*doc, "simulated"), "failed jobs",
                    serveStat(*doc, "failedJobs"));
        std::printf("%-16s %8.0f   %-16s %.0f\n", "worker crashes",
                    serveStat(*doc, "workerCrashes"), "restarts",
                    serveStat(*doc, "workerRestarts"));
        std::printf("job latency  n=%-6.0f p50 %-8s p90 %-8s p99 %-8s"
                    " mean %s\n",
                    serveStat(*doc, "jobLatency", "count"),
                    fmtUs(serveStat(*doc, "jobLatency", "p50Us"))
                        .c_str(),
                    fmtUs(serveStat(*doc, "jobLatency", "p90Us"))
                        .c_str(),
                    fmtUs(serveStat(*doc, "jobLatency", "p99Us"))
                        .c_str(),
                    fmtUs(serveStat(*doc, "jobLatency", "meanUs"))
                        .c_str());
        std::printf("queue wait   n=%-6.0f p50 %-8s p99 %s\n",
                    serveStat(*doc, "queueWait", "count"),
                    fmtUs(serveStat(*doc, "queueWait", "p50Us"))
                        .c_str(),
                    fmtUs(serveStat(*doc, "queueWait", "p99Us"))
                        .c_str());
        std::fflush(stdout);
        if (once)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval));
    }
}

// ---------------------------------------------------------------------------
// prof: profile report pretty-printer.

int
cmdProf(int argc, char **argv)
{
    std::size_t topN = 20;
    std::vector<std::string> words;
    const flags::Table rows = {
        flags::integer("--top", "<n>", "symbols to list", topN),
    };
    flags::parseFlags("critics_cli prof", rows, argc, argv,
                      {"report <file>", 2, 2, &words});
    if (words[0] != "report") {
        critics_fatal("critics_cli prof: unknown action '", words[0],
                      "' (see critics_cli prof --help)");
    }
    const std::string &path = words[1];
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    return obs::printProfileReport(text, topN) ? 0 : 1;
}

int
legacySingleRun(int argc, char **argv)
{
    std::string app = "Acrobat";
    std::string variantName = "critic";
    std::uint64_t insts = 400000;
    std::uint64_t statsInterval = 0;
    std::string statsOut = "stats_single.jsonl";
    std::string traceOut;
    bool json = false;
    bool list = false;
    const flags::Table rows = {
        flags::text("--app", "<name>", "app to run (see --list)", app),
        flags::text("--variant", "<name>",
                    "variant to compare against baseline", variantName),
        sim::instsFlag(insts),
        flags::toggle("--json", "print the comparison as JSON", json),
        flags::integer("--stats-interval", "<n>",
                       "sample all stats every n insts (0: never)",
                       statsInterval),
        flags::text("--stats-out", "<file>", "interval JSONL path",
                    statsOut),
        flags::text("--trace-out", "<file>",
                    "Chrome trace of the pipeline stages", traceOut),
        flags::toggle("--list", "list registered apps and exit", list),
    };
    flags::parseFlags("critics_cli", rows, argc, argv);
    if (list) {
        for (const auto &profile : workload::allApps()) {
            std::printf("%-12s %-10s %s\n", profile.name.c_str(),
                        workload::suiteName(profile.suite),
                        profile.activity.c_str());
        }
        return 0;
    }

    sim::ExperimentOptions options;
    options.traceInsts = insts;
    sim::AppExperiment exp(workload::findApp(app), options);
    const sim::Variant variant = sim::parseVariant(variantName);
    const auto &base = exp.baseline();

    sim::RunHooks hooks;
    stats::IntervalSeries series;
    stats::TraceEventWriter trace;
    hooks.statsInterval = statsInterval;
    if (statsInterval > 0)
        hooks.intervals = &series;
    if (!traceOut.empty())
        hooks.trace = &trace;
    const auto result = exp.run(variant, hooks);

    if (statsInterval > 0) {
        std::ofstream out(statsOut, std::ios::trunc);
        out << series.toJsonl(app + "/" + variantName);
        std::fprintf(stderr, "stats: %s (%zu rows)\n",
                     statsOut.c_str(), series.size());
    }
    if (!traceOut.empty() && trace.writeTo(traceOut)) {
        std::fprintf(stderr, "trace: %s (%zu events)\n",
                     traceOut.c_str(), trace.size());
    }

    if (json) {
        std::printf("%s\n",
                    sim::comparisonJson(base, result, variantName)
                        .c_str());
        return 0;
    }

    Table table({"metric", "baseline", variantName});
    table.addRow({"cycles", fmt(double(base.cpu.cycles), 0),
                  fmt(double(result.cpu.cycles), 0)});
    table.addRow({"IPC", fmt(base.cpu.ipc()), fmt(result.cpu.ipc())});
    table.addRow({"F.StallForI", pct(base.cpu.fracStallForI()),
                  pct(result.cpu.fracStallForI())});
    table.addRow({"F.StallForR+D", pct(base.cpu.fracStallForRd()),
                  pct(result.cpu.fracStallForRd())});
    table.addRow({"dyn 16-bit", pct(base.dynThumbFraction),
                  pct(result.dynThumbFraction)});
    table.addRow({"SoC energy (norm.)", fmt(1.0),
                  fmt(result.energy.total() / base.energy.total(), 4)});
    std::printf("%s (%s) under '%s'\n%s\nspeedup: %s\n",
                app.c_str(),
                workload::suiteName(exp.profile().suite),
                variantName.c_str(), table.render().c_str(),
                gainPct(exp.speedup(result)).c_str());
    return 0;
}

struct Command
{
    const char *name;
    const char *summary;
    int (*main)(int argc, char **argv);
};

const Command kCommands[] = {
    {"run", "run an apps x variants sweep", cmdRun},
    {"bench", "simulator microbench into BENCH_sim.json", cmdBench},
    {"report", "summarize run manifests", cmdReport},
    {"cache", "inspect, merge, compact or gc the result store", cmdCache},
    {"diff", "compare two runs metric by metric", cmdDiff},
    {"lint", "verify every variant's passes", cmdLint},
    {"serve", "job-queue daemon with forked workers", cmdServe},
    {"serve-worker", "one shard of a serve batch", serve::serveWorkerMain},
    {"submit", "submit a sweep to a daemon", cmdSubmit},
    {"status", "one-line state of a daemon job", cmdStatus},
    {"wait", "stream a daemon job's events until done", cmdWait},
    {"top", "live daemon monitor", cmdTop},
    {"prof", "pretty-print a --profile report", cmdProf},
};

} // namespace

int
run(int argc, char **argv)
{
    setQuiet(true);
    if (argc > 1) {
        const std::string word = argv[1];
        for (const auto &command : kCommands) {
            if (word == command.name)
                return command.main(argc - 2, argv + 2);
        }
        if (word == "--help" || word == "-h" || word == "help") {
            std::printf("critics_cli — experiment orchestrator driver\n\n"
                        "usage: critics_cli <command> [options]  "
                        "(critics_cli <command> --help lists them)\n\n"
                        "commands:\n");
            for (const auto &command : kCommands)
                std::printf("  %-14s%s\n", command.name, command.summary);
            std::printf("\nwithout a command, one app/variant run:\n");
            char help[] = "--help";
            char *helpArgv[] = {help};
            return legacySingleRun(1, helpArgv);
        }
    }
    return legacySingleRun(argc - 1, argv + 1);
}

int
main(int argc, char **argv)
{
    // Bad input (unknown app, malformed number) surfaces as an
    // exception from the layer that rejected it; exit cleanly
    // instead of std::terminate.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
    }
    return 2;
}
