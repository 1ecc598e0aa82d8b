/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench [--workload sweep-cold|job-latency|serve-mixed|all]
 *             [--seed N] [--reseed] [--seconds S] [--trace 0|1]
 *             [--smoke] [--work-dir DIR]
 *
 * Runs the chosen closed-loop workloads in this process (serve workers
 * are the only children), prints every metric with its unit and sample
 * count, checks the outputs, and ends with one JSON line:
 * {"correct", "attempted", "failed", "metrics"} — the end-to-end
 * metrics of an untraced run (--trace 0) or the per-layer metrics of a
 * traced run (--trace 1).  Exits 1 when an output check fails and 2 on
 * a usage error or a thread budget the host cannot give.
 *
 * `perfbench serve-worker ...` is the serve workload's worker entry
 * point (the server execs this binary).
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <sched.h>
#include <unistd.h>

#include "common.hh"
#include "runner/manifest.hh"
#include "runner/thread_pool.hh"
#include "serve/worker.hh"
#include "support/json.hh"

namespace
{

using namespace perfbench;

/** The most threads a workload keeps busy in any phase, its calling
 *  thread included (ThreadPool::forEach runs the body on its caller
 *  too). */
struct Budget
{
    unsigned busy;
    const char *how;
};

struct WorkloadDef
{
    const char *name;
    Report (*run)(const Config &);
    Budget budget;
};

const WorkloadDef kWorkloads[] = {
    {"sweep-cold", runSweepCold, {3, "pool 2 + caller"}},
    {"job-latency", runJobLatency, {3, "pool 2 + caller, one job each"}},
    {"serve-mixed", runServeMixed,
     {4, "2 workers x (pool 1 + caller); the traced replay uses pool 2 + "
         "caller"}},
};

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string
selfExecutable()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string one, five, fifteen;
    in >> one >> five >> fifteen;
    return one + " " + five + " " + fifteen;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench [--workload sweep-cold|job-latency|"
                 "serve-mixed|all] [--seed N] [--reseed] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--work-dir DIR]\n");
    return 2;
}

bool
parseSeconds(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && out >= 0;
}

bool
parseSeed(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return text[0] >= '0' && text[0] <= '9' && *end == '\0' && errno == 0;
}

void
printReport(const Report &report, const Budget &budget, unsigned nproc)
{
    std::printf("== %s  budget: %u busy threads (%s), nproc %u\n",
                report.workload.c_str(), budget.busy, budget.how, nproc);
    for (const Metric &m : report.metrics) {
        const char *kind = m.kind == Kind::EndToEnd ? "e2e"
                           : m.kind == Kind::Layer  ? "layer"
                                                    : "info";
        std::printf("  %-5s %-30s %16.6f %-5s n=%zu\n", kind, m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    }
    std::printf("  attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    if (report.checkFailures.empty())
        std::printf("  output checks: all passed\n");
    for (const std::string &failure : report.checkFailures)
        std::printf("  CHECK FAILED: %s\n", failure.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::string(argv[1]) == "serve-worker")
        return critics::serve::serveWorkerMain(argc - 2, argv + 2);

    Config cfg;
    cfg.workload = "all";
    cfg.workDir = ".bench_build/perfbench-work";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--workload" && hasValue) {
            cfg.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            if (!parseSeed(argv[++i], cfg.seed))
                return usage();
        } else if (arg == "--seconds" && hasValue) {
            if (!parseSeconds(argv[++i], cfg.seconds))
                return usage();
        } else if (arg == "--trace" && hasValue) {
            const std::string v = argv[++i];
            if (v != "0" && v != "1")
                return usage();
            cfg.trace = v == "1";
        } else if (arg == "--reseed") {
            cfg.reseed = true;
        } else if (arg == "--smoke") {
            cfg.smoke = true;
        } else if (arg == "--work-dir" && hasValue) {
            cfg.workDir = argv[++i];
        } else {
            return usage();
        }
    }
    std::vector<const WorkloadDef *> selected;
    for (const WorkloadDef &w : kWorkloads) {
        if (cfg.workload == "all" || cfg.workload == w.name)
            selected.push_back(&w);
    }
    if (selected.empty())
        return usage();

    cfg.nproc = onlineCpus();
    for (const WorkloadDef *w : selected) {
        if (w->budget.busy > cfg.nproc) {
            std::fprintf(stderr,
                         "perfbench: %s needs %u busy threads (%s) but only "
                         "%u CPUs are available\n",
                         w->name, w->budget.busy, w->budget.how, cfg.nproc);
            return 2;
        }
    }

    std::filesystem::create_directories(cfg.workDir);
    cfg.workDir = std::filesystem::absolute(cfg.workDir).string();
    cfg.selfExe = selfExecutable();
    // Measure the defaults, whatever the caller's environment says, and
    // fix the pool size before anything creates the pool.
    unsetenv("CRITICS_VERIFY");
    unsetenv("CRITICS_FLAT_ANALYZE");
    setenv("CRITICS_CACHE_DIR", (cfg.workDir + "/cache").c_str(), 1);
    setenv("CRITICS_THREADS", std::to_string(kPoolThreads).c_str(), 1);
    critics::runner::ThreadPool::shared();
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("# perfbench workload=%s seed=%llu%s seconds=%g trace=%d%s\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed),
                cfg.reseed ? " reseed" : "", cfg.seconds, cfg.trace ? 1 : 0,
                cfg.smoke ? " smoke" : "");
    std::printf("# host nproc=%u loadavg=%s compiler=g++ %s build=%s "
                "git=%s\n",
                cfg.nproc, loadAverage().c_str(), __VERSION__,
                PERFBENCH_BUILD_TYPE,
                critics::runner::gitDescribe().c_str());
    std::fflush(stdout);

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::pair<std::string, Metric>> reported;
    const Kind wanted = cfg.trace ? Kind::Layer : Kind::EndToEnd;
    for (const WorkloadDef *w : selected) {
        const Report report = w->run(cfg);
        printReport(report, w->budget, cfg.nproc);
        std::fflush(stdout);
        correct = correct && report.correct();
        attempted += report.attempted;
        failed += report.failed;
        for (const Metric &m : report.metrics) {
            if (m.kind == wanted)
                reported.emplace_back(selected.size() > 1
                                          ? report.workload + "/" + m.name
                                          : m.name,
                                      m);
        }
    }
    std::filesystem::remove_all(cfg.workDir + "/cache");

    critics::json::JsonWriter out;
    out.beginObject()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .beginObject("metrics");
    for (const auto &[key, m] : reported) {
        out.beginObject(key.c_str())
            .fieldReadable("value", m.value)
            .field("unit", m.unit)
            .endObject();
    }
    out.endObject().endObject();
    std::printf("%s\n", out.str().c_str());
    return correct ? 0 : 1;
}
