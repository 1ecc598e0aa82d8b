/**
 * @file
 * The traced run's span recorder.  The benchmark opens a SpanScope
 * around each of its own calls into a module's public functions; a
 * span records its name, start, end, parent (the enclosing scope on
 * the same thread) and the run id of the log it belongs to.  Spans are
 * kept in memory and written out once the run ends.
 *
 * A layer's self time is the sum, over its spans, of each span's
 * duration minus the durations of its direct children.
 *
 * With no log installed a SpanScope does nothing, which is how the
 * timed passes run.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

class SpanLog
{
  public:
    struct Span
    {
        const char *name = nullptr;
        const char *tag = nullptr; ///< optional split, e.g. "mobile"
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        std::int64_t parent = -1; ///< index into spans(), -1 = root
        std::uint32_t thread = 0;
    };

    /** Self time and call count of one span name (or name.tag). */
    struct Layer
    {
        double selfMs = 0.0;
        std::uint64_t calls = 0;
    };

    /** The run id is this process's pid: one traced run per process. */
    SpanLog();

    /** The log scopes record into; nullptr = tracing off. */
    static SpanLog *active();
    static void install(SpanLog *log);

    std::size_t open(const char *name, const char *tag);
    void close(std::size_t index);

    /** Self time per span name, plus per "name.tag" for tagged spans. */
    std::map<std::string, Layer> layers() const;

    /** One JSON object per span, one per line; false on an I/O error. */
    bool write(const std::string &path) const;

  private:
    std::uint32_t runId_;
    mutable std::mutex lock_;
    std::vector<Span> spans_;
};

class SpanScope
{
  public:
    explicit SpanScope(const char *name, const char *tag = nullptr);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    std::size_t index_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
