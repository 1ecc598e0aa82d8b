#include "spans.hh"

#include <atomic>
#include <chrono>
#include <fstream>

#include <unistd.h>

#include "support/json.hh"

namespace perfbench
{

namespace
{

std::atomic<SpanLog *> gActive{nullptr};
std::atomic<std::uint32_t> gNextThread{0};

/** Indices of this thread's open spans, innermost last. */
thread_local std::vector<std::int64_t> tStack;
thread_local std::uint32_t tThread = gNextThread.fetch_add(1);

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

SpanLog::SpanLog() : runId_(static_cast<std::uint32_t>(getpid())) {}

SpanLog *
SpanLog::active()
{
    return gActive.load(std::memory_order_acquire);
}

void
SpanLog::install(SpanLog *log)
{
    gActive.store(log, std::memory_order_release);
}

std::size_t
SpanLog::open(const char *name, const char *tag)
{
    Span span;
    span.name = name;
    span.tag = tag;
    span.parent = tStack.empty() ? -1 : tStack.back();
    span.thread = tThread;
    std::lock_guard<std::mutex> guard(lock_);
    const std::size_t index = spans_.size();
    span.startNs = nowNs();
    spans_.push_back(span);
    tStack.push_back(static_cast<std::int64_t>(index));
    return index;
}

void
SpanLog::close(std::size_t index)
{
    const std::uint64_t end = nowNs();
    tStack.pop_back();
    std::lock_guard<std::mutex> guard(lock_);
    spans_[index].endNs = end;
}

std::map<std::string, SpanLog::Layer>
SpanLog::layers() const
{
    std::lock_guard<std::mutex> guard(lock_);
    std::vector<std::uint64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double selfMs =
            static_cast<double>(s.endNs - s.startNs - childNs[i]) * 1e-6;
        Layer &layer = out[s.name];
        layer.selfMs += selfMs;
        layer.calls++;
        if (s.tag != nullptr) {
            Layer &tagged = out[std::string(s.name) + "." + s.tag];
            tagged.selfMs += selfMs;
            tagged.calls++;
        }
    }
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    std::lock_guard<std::mutex> guard(lock_);
    for (const Span &s : spans_) {
        critics::json::JsonWriter w;
        w.beginObject()
            .field("run", static_cast<std::uint64_t>(runId_))
            .field("name", s.name)
            .field("tag", s.tag != nullptr ? s.tag : "")
            .field("start_ns", s.startNs)
            .field("end_ns", s.endNs)
            .field("parent", s.parent)
            .field("thread", static_cast<std::uint64_t>(s.thread))
            .endObject();
        out << w.str() << "\n";
    }
    return static_cast<bool>(out);
}

SpanScope::SpanScope(const char *name, const char *tag)
    : log_(SpanLog::active())
{
    if (log_ != nullptr)
        index_ = log_->open(name, tag);
}

SpanScope::~SpanScope()
{
    if (log_ != nullptr)
        log_->close(index_);
}

} // namespace perfbench
