/**
 * @file
 * Shared vocabulary of the perfbench workloads: the run configuration,
 * the metric/report records every workload fills, seeded inputs,
 * resource accounting and the thread budget.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/job.hh"
#include "sim/experiment.hh"
#include "workload/profile.hh"

namespace critics::runner
{
class Runner;
struct BatchResult;
}

namespace perfbench
{

using namespace critics;

struct Config
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Also re-seed every app profile from `seed` (held-out programs).
     *  Off by default: the re-seeded programs differ in cost by up to
     *  a fifth from seed to seed, so runs at different seeds are only
     *  comparable without it. */
    bool reseed = false;
    /** Tiny grid, one pass: the benchmark's own test. */
    bool smoke = false;
    /** Scratch root for stores and span files (inside the checkout). */
    std::string workDir;
    /** This binary, exec'd as `serve-worker` by the serve workload. */
    std::string selfExe;
    unsigned nproc = 1;
};

/** Where a metric is reported: end-to-end metrics go into the JSON
 *  line of an untraced run, layer metrics into that of a traced run;
 *  every metric is printed in the table. */
enum class Kind : std::uint8_t
{
    EndToEnd,
    Layer,
    Info,
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (0 = a single measurement/count). */
    std::size_t samples = 0;
    Kind kind = Kind::Info;
};

struct Report
{
    std::string workload;
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed output check. */
    std::vector<std::string> checkFailures;

    void add(const std::string &name, double value,
             const std::string &unit, std::size_t samples, Kind kind);
    void check(bool ok, const std::string &what);
    bool correct() const { return checkFailures.empty() && failed == 0; }
};

// ---- statistics -------------------------------------------------------

/** Nearest-rank percentile (q in (0,1]); 0 for an empty set. */
double percentile(std::vector<double> values, double q);
/** Median (mean of the middle pair for even counts). */
double median(std::vector<double> values);

// ---- time and resources ------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The end-to-end rows every workload reports: setup_s, wall_s and
 *  cpu_s as medians, p50_ms/p90_ms over `opMs`, and fail_frac from
 *  the report's op counts. */
void addEndToEnd(Report &report, const std::vector<double> &setupS,
                 const std::vector<double> &wallS,
                 const std::vector<double> &cpuS,
                 const std::vector<double> &opMs);

/** Process resource counters: self plus reaped children. */
struct Usage
{
    double cpuS = 0.0; ///< user + system
    double sysS = 0.0;
    double maxRssSelfMb = 0.0;
    double maxRssChildrenMb = 0.0;
    double nivcsw = 0.0; ///< involuntary context switches
    double minflt = 0.0; ///< minor page faults
};

Usage usageNow();

/** Adds the proc.* noise counters (deltas since `start`) and
 *  peak_rss_mb to `report`. */
void addProcessMetrics(Report &report, const Usage &start);

// ---- seeded inputs ------------------------------------------------------

/** All 26 apps (two in smoke mode).  `profileSeed` 0 keeps each
 *  profile's canonical seed; any other value re-seeds every profile. */
std::vector<workload::AppProfile> benchApps(std::uint64_t profileSeed,
                                            bool smoke);

/** Seeded Fisher-Yates shuffle; seed 0 keeps the canonical order. */
template <class T>
void
seededShuffle(std::vector<T> &items, std::uint64_t seed)
{
    if (seed == 0)
        return;
    std::uint64_t state = seed;
    for (std::size_t i = items.size(); i > 1; --i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::size_t j = (state >> 33) % i;
        std::swap(items[i - 1], items[j]);
    }
}

/**
 * Simulation options of every workload: 150k dynamic instructions per
 * trace, 20k in smoke mode.  At the CLI's 400k, sweep-cold and
 * job-latency medians moved by 25-31% between sets of ten runs minutes
 * apart on a shared host, while serve-mixed at 150k moved by at most
 * 7% over the same sets.
 */
sim::ExperimentOptions benchOptions(bool smoke);

/** "mobile" or "spec": the split ROADMAP item 3 cares about. */
const char *suiteTag(const workload::AppProfile &profile);

/** Bit-exact rendering of a result (hex-float JSON), for equality. */
std::string digest(const sim::RunResult &result);

/** Verifier checks run so far in this process (verify::counters()). */
std::uint64_t verifyChecks();

/** A fresh, empty directory under cfg.workDir. */
std::string freshDir(const Config &cfg, const std::string &name);

/**
 * Reloads the store `batch` wrote and checks every record equals the
 * batch's result, bit for bit; adds the runner.* layer metrics (store
 * load/lookup/insert, pool busy fraction, per-job wall p50).
 */
void checkStoreAndAddRunnerMetrics(Report &report, const Config &cfg,
                                   const runner::Runner &runner,
                                   const runner::BatchResult &batch,
                                   double batchWallS, unsigned busyThreads);

// ---- workloads -----------------------------------------------------------

Report runSweepCold(const Config &cfg);
Report runJobLatency(const Config &cfg);
Report runServeMixed(const Config &cfg);

/** Set-ups timed per run; setup_s is their median.  One set-up lasts
 *  0.1 s or less, short enough for a slow phase of the host, which lasts
 *  from tenths of a second to seconds, to move it by a third; the median
 *  needs reps spread over a few seconds. */
constexpr int kSetupReps = 21;

/** Threads of the process's shared pool; a forEach keeps one more
 *  busy, its caller. */
constexpr unsigned kPoolThreads = 2;

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
