/**
 * @file
 * Persistent experiment-result cache: an append-only JSONL file, one
 * record per completed job, keyed by the JobSpec content hash and the
 * result schema version.  Records round-trip every RunResult field
 * bit-exactly (doubles as hex-floats), so a warm run reproduces a cold
 * run's tables digit for digit.
 *
 * Multi-writer guarantee: every writer of a store, appender or
 * rewriter, takes an exclusive flock() on its sidecar `<store>.lock`
 * (StoreLock).  That file is never renamed and never removed, so it
 * is the one lock they all share.  An appender holding it opens the
 * data path with O_APPEND, writes its record as a single write(2) and
 * closes the file, so any number of processes (shards of one sweep,
 * concurrent sweeps, serve workers) may append to the same store
 * without ever interleaving partial lines.  The only non-atomic
 * failure mode left is a process dying mid-write, which leaves at
 * most one truncated tail line; loads skip it.  In-process, a mutex
 * serializes appends across the worker threads.
 *
 * Cache rewriters (`cache merge/compact/gc`) hold the same sidecar
 * lock across their fold + temp + rename replacement of the data
 * file.  No rename can happen while an appender holds the lock, and
 * the appender opens the path afresh for every record, so no record
 * is ever appended to an orphaned file.
 */

#ifndef CRITICS_RUNNER_RESULT_STORE_HH
#define CRITICS_RUNNER_RESULT_STORE_HH

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "runner/job.hh"

namespace critics::json
{
class JsonValue;
}

namespace critics::stats
{
class StatRegistry;
}

namespace critics::runner
{

/** Serialize every RunResult field (bit-exact doubles). */
std::string resultToJson(const sim::RunResult &result);

/** Inverse of resultToJson(); nullopt if any field is missing. */
std::optional<sim::RunResult> resultFromJson(const json::JsonValue &json);

/**
 * Directory holding the cache and the run manifests.  Resolution:
 * $CRITICS_CACHE_DIR if set, else `.critics-cache` under the current
 * working directory.
 */
std::string cacheDir();

/** One record of a result-store file, with its provenance fields. */
struct ResultRecord
{
    std::string hash;
    std::string app;
    std::string variant;
    std::string spec;
    std::uint64_t writtenUnix = 0; ///< 0 in pre-timestamp records
    sim::RunResult result;
};

/**
 * Read every well-formed current-schema record of a results.jsonl
 * file, in file order with later duplicates of a hash superseding
 * earlier ones (the store's append semantics).  Unlike ResultStore,
 * this keeps the app/variant provenance — the key `critics_cli diff`
 * matches runs by, since a config change alters every content hash.
 */
std::vector<ResultRecord> readResultRecords(const std::string &path);

/** The sidecar lock file of the store at `path`: `<path>.lock`. */
std::string storeLockPath(const std::string &path);

/**
 * RAII exclusive flock on a store's sidecar lock file, the one lock
 * that ResultStore appenders and the cache rewriters share.  The
 * sidecar is never renamed, and never removed while the store may
 * have writers: a writer that locked a removed sidecar would exclude
 * no one who opens the new one.  The descriptor is close-on-exec, so
 * an exec'd child never keeps the lock.  If the sidecar cannot be
 * opened (an unwritable directory) the caller proceeds unlocked.
 */
class StoreLock
{
  public:
    explicit StoreLock(const std::string &storePath);
    ~StoreLock();

    StoreLock(const StoreLock &) = delete;
    StoreLock &operator=(const StoreLock &) = delete;

  private:
    int fd_ = -1;
};

class ResultStore
{
  public:
    /** Opens (and loads) `path`; "" means cacheDir()/results.jsonl. */
    explicit ResultStore(std::string path = "");

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Cached result for this spec, or nullopt.  A hash match with a
     * different stored spec string (a collision, or a hash-function
     * change) is treated as a miss.
     */
    std::optional<sim::RunResult> lookup(const JobSpec &spec) const;

    /** Same lookup with the spec string and content hash precomputed
     *  by the caller: spec strings are ~2 KB canonical renders, and
     *  the orchestrator hashes each job exactly once per batch. */
    std::optional<sim::RunResult> lookup(const std::string &hashHex,
                                         const std::string &spec) const;

    /**
     * Append one completed job as one O_APPEND write under the
     * store's sidecar lock, so concurrent writer processes never tear
     * each other's lines and never lose one to a rewrite (see the
     * file comment for the exact guarantee).
     */
    void insert(const JobSpec &spec, const sim::RunResult &result);

    /** Same append with precomputed key strings (see lookup). */
    void insert(const std::string &hashHex, const std::string &spec,
                const std::string &app, const std::string &variant,
                const sim::RunResult &result);

    std::size_t size() const;
    const std::string &path() const { return path_; }

    // Lifetime counters (process-cumulative, not persisted).
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t inserts() const;
    /** Lookups whose hash matched but stored spec differed (a true
     *  collision, or a stale record from a hash-function change);
     *  `cache compact` drops such records from disk. */
    std::uint64_t collisions() const;

    /** Register cache counters under `prefix` (conventionally
     *  "runner.cache"); the store must outlive the registry. */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &prefix) const;

    /** Delete the backing file and forget all records.  The sidecar
     *  lock file stays (see StoreLock). */
    void clear();

    /** Drop the in-memory index and re-read the backing file — how a
     *  long-running daemon picks up records appended by worker
     *  processes or a completed `cache merge`. */
    void reload();

  private:
    void load();

    struct Entry
    {
        std::string spec;
        sim::RunResult result;
    };

    mutable std::mutex lock_;
    std::string path_;
    std::unordered_map<std::string, Entry> entries_;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;
    mutable std::uint64_t collisions_ = 0;
};

} // namespace critics::runner

#endif // CRITICS_RUNNER_RESULT_STORE_HH
