/**
 * @file
 * serve-mixed: an embedded serve::Server on an ephemeral loopback port
 * (2 forked workers, one pool thread each) with a fresh store, driven
 * closed-loop by one ServeClient connection.  The full grid at 150k
 * insts is split into batches of one app × four variants; each batch
 * is submitted cold, then resubmitted warm.  The warm half is answered
 * from the store and never reaches the simulator.
 *
 * The protocol names apps, not profiles, so the seed only reorders the
 * batches here; the served profiles are always the canonical ones.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "common.hh"
#include "pipeline.hh"
#include "runner/orchestrator.hh"
#include "runner/result_store.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/variants.hh"
#include "spans.hh"
#include "support/json.hh"

namespace perfbench
{

namespace
{

constexpr int kReplyTimeoutMs = 120000;
constexpr unsigned kWorkers = 2;
/** Instructions per trace of the set-up's round trip: a size the timed
 *  grid never uses, so the set-up leaves the grid cold.  A ping as the
 *  first round trip takes under a millisecond, mostly thread wake-ups,
 *  and its median moved by half between two sets of ten runs. */
constexpr std::uint64_t kSetupInsts = 10000;

/** What the client saw of one submitted batch, times from submit. */
struct Served
{
    bool ok = false;
    std::string error;
    double submitRttMs = 0.0;
    double firstEventMs = 0.0;
    double maxGapMs = 0.0;
    double doneLagMs = 0.0;
    double totalMs = 0.0;
    std::uint64_t total = 0;
    std::uint64_t warm = 0;
    std::uint64_t simulated = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> hashes;
};

std::uint64_t
uintField(const json::JsonValue &doc, const char *key)
{
    const json::JsonValue *v = doc.find(key);
    return v != nullptr ? v->asUint().value_or(0) : 0;
}

std::string
stringField(const json::JsonValue &doc, const char *key)
{
    const json::JsonValue *v = doc.find(key);
    return v != nullptr ? v->asString().value_or("") : "";
}

/** Submit one batch and follow it to its done line. */
Served
serveBatch(serve::ServeClient &client, const serve::SubmitRequest &submit)
{
    SpanScope batchSpan("serve.batch");
    Served s;
    const auto t0 = Clock::now();
    auto sinceMs = [&] { return secondsSince(t0) * 1e3; };

    serve::Request request;
    request.op = serve::Request::Op::Submit;
    request.submit = submit;
    std::optional<std::string> reply;
    {
        SpanScope span("serve.submit");
        if (client.sendLine(serve::renderRequest(request)))
            reply = client.readLine(kReplyTimeoutMs);
    }
    s.submitRttMs = sinceMs();
    const auto doc = reply ? json::parseJson(*reply) : std::nullopt;
    const std::string jobId = doc ? stringField(*doc, "job") : "";
    if (jobId.empty()) {
        s.error = "submit rejected: " + reply.value_or("(no reply)");
        return s;
    }

    SpanScope span("serve.wait");
    serve::Request wait;
    wait.op = serve::Request::Op::Wait;
    wait.job = jobId;
    if (!client.sendLine(serve::renderRequest(wait))) {
        s.error = "wait request not sent";
        return s;
    }
    double lastLineMs = -1.0;
    double lastJobMs = s.submitRttMs;
    for (;;) {
        const auto line = client.readLine(kReplyTimeoutMs);
        if (!line) {
            s.error = "no done line for " + jobId;
            return s;
        }
        const double at = sinceMs();
        if (lastLineMs < 0)
            s.firstEventMs = at;
        else
            s.maxGapMs = std::max(s.maxGapMs, at - lastLineMs);
        lastLineMs = at;
        const auto event = json::parseJson(*line);
        if (!event) {
            s.error = "unparsable event line";
            return s;
        }
        const std::string kind = stringField(*event, "event");
        if (kind == "job") {
            lastJobMs = at;
            s.hashes.push_back(stringField(*event, "hash"));
        } else if (kind == "done") {
            s.totalMs = at;
            s.doneLagMs = at - lastJobMs;
            s.total = uintField(*event, "total");
            s.warm = uintField(*event, "warm");
            s.simulated = uintField(*event, "simulated");
            s.failed = uintField(*event, "failed");
            s.ok = stringField(*event, "state") == "done" && s.failed == 0;
            if (!s.ok)
                s.error = "batch " + jobId + " ended " + *line;
            std::sort(s.hashes.begin(), s.hashes.end());
            return s;
        }
    }
}

/** A running server plus the client connected to it. */
struct Live
{
    std::string dir;
    std::unique_ptr<serve::Server> server;
    serve::ServeClient client;
};

struct Pass
{
    std::vector<Served> cold;
    std::vector<Served> warm;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::string statsLine; ///< the stats op's reply after the pass
};

} // namespace

Report
runServeMixed(const Config &cfg)
{
    Report report;
    report.workload = "serve-mixed";
    const auto apps = benchApps(0, cfg.smoke);
    const auto options = benchOptions(cfg.smoke);
    const std::vector<std::string> &names = sim::allVariantNames();
    std::vector<serve::SubmitRequest> batches;
    for (const auto &app : apps) {
        for (std::size_t g = 0; g + 4 <= names.size(); g += 4) {
            serve::SubmitRequest submit;
            submit.batch = "perfbench";
            submit.apps = app.name;
            submit.variants = names[g] + "," + names[g + 1] + "," +
                              names[g + 2] + "," + names[g + 3];
            submit.insts = options.traceInsts;
            batches.push_back(submit);
        }
    }
    seededShuffle(batches, cfg.seed);
    const Usage start = usageNow();

    // Serve workers inherit the environment: one pool thread each.
    setenv("CRITICS_THREADS", "1", 1);

    unsigned liveCount = 0;
    auto setup = [&]() {
        auto live = std::make_unique<Live>();
        live->dir = freshDir(cfg, "serve-" + std::to_string(liveCount++));
        serve::ServerOptions so;
        so.workers = kWorkers;
        so.cachePath = live->dir + "/results.jsonl";
        so.workerExe = cfg.selfExe;
        live->server = std::make_unique<serve::Server>(so);
        std::string error;
        report.check(live->server->start(&error),
                     "server did not start: " + error);
        report.check(live->client.connect("127.0.0.1", live->server->port(),
                                          &error),
                     "client did not connect: " + error);
        serve::SubmitRequest first;
        first.batch = "perfbench-setup";
        first.apps = apps.front().name;
        first.variants = "baseline";
        first.insts = kSetupInsts;
        const Served served = serveBatch(live->client, first);
        report.check(served.ok, "set-up batch: " + served.error);
        return live;
    };
    auto teardown = [&](Live &live, bool keepStore) {
        live.client.close();
        live.server->requestShutdown();
        live.server->wait();
        live.server.reset();
        if (!keepStore)
            std::filesystem::remove_all(live.dir);
    };
    auto runPass = [&](Live &live) {
        Pass p;
        const Usage u0 = usageNow();
        const auto t0 = Clock::now();
        for (const serve::SubmitRequest &submit : batches) {
            p.cold.push_back(serveBatch(live.client, submit));
            p.warm.push_back(serveBatch(live.client, submit));
        }
        p.wallS = secondsSince(t0);
        p.cpuS = usageNow().cpuS - u0.cpuS;
        serve::Request stats;
        stats.op = serve::Request::Op::Stats;
        if (live.client.sendLine(serve::renderRequest(stats)))
            p.statsLine = live.client.readLine(kReplyTimeoutMs).value_or("");
        return p;
    };

    std::vector<double> setupS;
    for (int i = 0; i + 1 < kSetupReps; ++i) {
        const auto t = Clock::now();
        auto live = setup();
        setupS.push_back(secondsSince(t));
        teardown(*live, false);
    }
    std::vector<Pass> passes;
    const auto runStart = Clock::now();
    do {
        const auto t = Clock::now();
        auto live = setup();
        setupS.push_back(secondsSince(t));
        passes.push_back(runPass(*live));
        teardown(*live, false);
    } while (!cfg.smoke &&
             secondsSince(runStart) + passes.back().wallS <= cfg.seconds);

    std::vector<double> wall, cpu, coldMs, warmMs;
    for (const Pass &p : passes) {
        wall.push_back(p.wallS);
        cpu.push_back(p.cpuS);
        for (std::size_t i = 0; i < batches.size(); ++i) {
            const Served &c = p.cold[i];
            const Served &w = p.warm[i];
            report.attempted += 2;
            report.failed += (c.ok ? 0 : 1) + (w.ok ? 0 : 1);
            report.check(c.ok, c.error);
            report.check(w.ok, w.error);
            coldMs.push_back(c.totalMs);
            warmMs.push_back(w.totalMs);
            report.check(c.hashes.size() == 4 && c.hashes == w.hashes &&
                             w.simulated == 0 && w.warm == w.total,
                         "warm answer for " + batches[i].apps + " [" +
                             batches[i].variants +
                             "] does not repeat its cold submission");
        }
    }

    addEndToEnd(report, setupS, wall, cpu, coldMs);
    report.add("cold_p50_ms", percentile(coldMs, 0.5), "ms", coldMs.size(),
               Kind::Info);
    report.add("cold_p90_ms", percentile(coldMs, 0.9), "ms", coldMs.size(),
               Kind::Info);
    report.add("warm_p50_ms", percentile(warmMs, 0.5), "ms", warmMs.size(),
               Kind::Info);
    report.add("warm_p90_ms", percentile(warmMs, 0.9), "ms", warmMs.size(),
               Kind::Info);

    if (cfg.trace) {
        SimTotals totals;
        SpanLog log;
        SpanLog::install(&log);
        auto live = setup();
        const Pass traced = runPass(*live);
        teardown(*live, true);

        // Client-side protocol timings, warm and cold halves apart.
        auto p50 = [](const std::vector<Served> &batch,
                      double Served::*field) {
            std::vector<double> v;
            for (const Served &s : batch)
                v.push_back(s.*field);
            return percentile(v, 0.5);
        };
        const std::size_t n = batches.size();
        for (const auto &[half, suffix] :
             {std::pair{&traced.warm, ""}, std::pair{&traced.cold, ".cold"}}) {
            const std::string sfx = suffix;
            report.add("serve.submit_rtt_ms" + sfx,
                       p50(*half, &Served::submitRttMs), "ms", n, Kind::Info);
            report.add("serve.first_event_ms" + sfx,
                       p50(*half, &Served::firstEventMs), "ms", n,
                       Kind::Info);
            report.add("serve.max_gap_ms" + sfx,
                       p50(*half, &Served::maxGapMs), "ms", n, Kind::Info);
            report.add("serve.done_lag_ms" + sfx,
                       p50(*half, &Served::doneLagMs), "ms", n, Kind::Info);
        }
        const auto stats = json::parseJson(traced.statsLine);
        const json::JsonValue *serve = stats ? stats->find("serve") : nullptr;
        report.check(serve != nullptr, "no stats reply");
        if (serve != nullptr) {
            for (const auto &[key, name] :
                 {std::pair{"warmHits", "serve.warm_hits"},
                  std::pair{"simulated", "serve.simulated"},
                  std::pair{"workerRestarts", "serve.worker_restarts"}})
                report.add(name, static_cast<double>(uintField(*serve, key)),
                           "count", 0, Kind::Info);
            const json::JsonValue *queue = serve->find("queueWait");
            const json::JsonValue *p50Us =
                queue != nullptr ? queue->find("p50Us") : nullptr;
            report.add("serve.queue_wait_p50_ms",
                       p50Us != nullptr ? p50Us->asDouble().value_or(0) * 1e-3
                                        : 0.0,
                       "ms", n, Kind::Info);
        }

        // Replay the served grid in-process through the traced pipeline:
        // every served record must equal a direct run bit for bit.  The
        // in-process layers of this workload are measured here.
        const runner::ResultStore served(live->dir + "/results.jsonl");
        const std::string dir = freshDir(cfg, "serve-replay");
        const auto runner = makeRunner(dir, tracedExecutor(totals));
        buildExperiments(*runner, apps, options, true);
        const auto jobs =
            runner::makeGrid(apps, sim::parseVariants("all"), options);
        const std::uint64_t checks0 = verifyChecks();
        const auto t0 = Clock::now();
        const runner::BatchResult batch = runner->run("serve-replay", jobs);
        const double batchWallS = secondsSince(t0);
        const std::uint64_t checks = verifyChecks() - checks0;
        SpanLog::install(nullptr);
        std::size_t differ = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const auto record = served.lookup(jobs[i]);
            if (!batch.outcomes[i].ok || !record ||
                digest(*record) != digest(batch.outcomes[i].result))
                ++differ;
        }
        report.check(differ == 0, std::to_string(differ) +
                                      " served results differ from a direct "
                                      "run");
        checkStoreAndAddRunnerMetrics(report, cfg, *runner, batch,
                                      batchWallS, kPoolThreads + 1);
        addLayerMetrics(report, log, totals, checks,
                        traced.wallS - median(wall));
        report.check(log.write(cfg.workDir + "/spans-serve-mixed.jsonl"),
                     "span file not written");
        std::filesystem::remove_all(dir);
        std::filesystem::remove_all(live->dir);
    }
    addProcessMetrics(report, start);
    return report;
}

} // namespace perfbench
