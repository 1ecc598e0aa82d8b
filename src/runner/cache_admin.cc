#include "runner/cache_admin.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "runner/result_store.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace critics::runner
{

using json::JsonValue;
using json::parseJson;

namespace
{

/** One store line, classified but with its bytes kept verbatim. */
struct ScannedLine
{
    enum class Kind { Good, OldSchema, Malformed };

    std::string line; ///< exact bytes, newline stripped
    std::string hash;
    std::uint64_t writtenUnix = 0;
    Kind kind = Kind::Malformed;
    bool orphan = false; ///< hash field != hash(spec)
};

ScannedLine
scanLine(std::string line)
{
    ScannedLine scanned;
    scanned.line = std::move(line);
    const auto doc = parseJson(scanned.line);
    if (!doc || !doc->isObject())
        return scanned;
    const JsonValue *schema = doc->find("schema");
    if (!schema || !schema->asInt()) {
        return scanned;
    }
    if (*schema->asInt() != kResultSchemaVersion) {
        scanned.kind = ScannedLine::Kind::OldSchema;
        return scanned;
    }
    const JsonValue *hash = doc->find("hash");
    const JsonValue *spec = doc->find("spec");
    const JsonValue *result = doc->find("result");
    if (!hash || !hash->asString() || !spec || !spec->asString() ||
        !result || !resultFromJson(*result)) {
        return scanned;
    }
    scanned.hash = *hash->asString();
    if (const JsonValue *v = doc->find("writtenUnix"))
        scanned.writtenUnix = v->asUint().value_or(0);
    scanned.kind = ScannedLine::Kind::Good;
    scanned.orphan =
        hashHexOf(hashSpecString(*spec->asString())) != scanned.hash;
    return scanned;
}

std::uintmax_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    return ec ? 0 : bytes;
}

/**
 * Read `path` line by line, folding Good lines into `kept` with
 * later-record-wins dedup at the first-seen position (the store's
 * load semantics) and counting everything dropped.  `dropOrphans`
 * distinguishes compact/gc (drop + count) from merge (keep + count).
 */
void
foldStore(const std::string &path, bool dropOrphans,
          std::vector<ScannedLine> &kept,
          std::unordered_map<std::string, std::size_t> &byHash,
          CacheAdminStats &stats)
{
    std::ifstream in(path);
    if (!in)
        return;
    ++stats.filesRead;
    stats.bytesBefore += fileBytes(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ScannedLine scanned = scanLine(std::move(line));
        line.clear();
        switch (scanned.kind) {
          case ScannedLine::Kind::Malformed:
            ++stats.malformed;
            continue;
          case ScannedLine::Kind::OldSchema:
            ++stats.oldSchema;
            continue;
          case ScannedLine::Kind::Good:
            break;
        }
        if (scanned.orphan) {
            ++stats.orphans;
            if (dropOrphans)
                continue;
        }
        const auto it = byHash.find(scanned.hash);
        if (it != byHash.end()) {
            ++stats.superseded;
            kept[it->second] = std::move(scanned); // last wins
        } else {
            byHash.emplace(scanned.hash, kept.size());
            kept.push_back(std::move(scanned));
        }
    }
}

/** Replace `path` with `kept`'s lines via temp-file + rename. */
bool
writeStore(const std::string &path,
           const std::vector<ScannedLine> &kept,
           CacheAdminStats &stats)
{
    const auto dir = std::filesystem::path(path).parent_path();
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
    }
    const std::string temp =
        path + ".tmp-" + std::to_string(::getpid());
    {
        std::ofstream out(temp, std::ios::trunc);
        if (!out)
            return false;
        for (const auto &scanned : kept)
            out << scanned.line << '\n';
        if (!out)
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(temp, path, ec);
    if (ec) {
        std::filesystem::remove(temp, ec);
        return false;
    }
    stats.recordsKept = kept.size();
    stats.bytesAfter = fileBytes(path);
    return true;
}

std::string
kib(std::uintmax_t bytes)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
    return buf;
}

} // namespace

std::string
CacheAdminStats::summary() const
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "kept %zu record(s); dropped %zu superseded, %zu old-schema, "
        "%zu malformed, %zu orphan, %zu expired, %zu evicted",
        recordsKept, superseded, oldSchema, malformed, orphans,
        expired, evicted);
    return std::string(buf) + "; " + kib(bytesReclaimed()) +
           " reclaimed (" + kib(bytesBefore) + " -> " +
           kib(bytesAfter) + ")";
}

std::optional<CacheAdminStats>
mergeStores(const std::string &outPath,
            const std::vector<std::string> &inputs)
{
    CacheAdminStats stats;
    std::vector<ScannedLine> kept;
    std::unordered_map<std::string, std::size_t> byHash;
    // The output store may have live appenders (it is the shared
    // result tier under `serve`), and may itself be one of the
    // inputs: hold its sidecar lock across the whole fold + rewrite.
    StoreLock lock(outPath);
    for (const auto &input : inputs)
        foldStore(input, /*dropOrphans=*/false, kept, byHash, stats);
    if (stats.filesRead == 0) {
        critics_warn("cache merge: none of the ", inputs.size(),
                     " input store(s) could be read");
        return std::nullopt;
    }
    if (!writeStore(outPath, kept, stats))
        return std::nullopt;
    return stats;
}

std::optional<CacheAdminStats>
compactStore(const std::string &path)
{
    CacheAdminStats stats;
    if (!std::filesystem::exists(path))
        return stats; // nothing on disk: an empty store is compact
    std::vector<ScannedLine> kept;
    std::unordered_map<std::string, std::size_t> byHash;
    // Exclude concurrent appenders and rewriters for the whole fold +
    // rewrite, so no record lands on the inode the rename is about to
    // orphan.
    StoreLock lock(path);
    foldStore(path, /*dropOrphans=*/true, kept, byHash, stats);
    if (stats.filesRead == 0)
        return stats;
    if (!writeStore(path, kept, stats))
        return std::nullopt;
    return stats;
}

std::optional<CacheAdminStats>
gcStore(const std::string &path, const GcOptions &opt)
{
    CacheAdminStats stats;
    if (!std::filesystem::exists(path))
        return stats;
    std::vector<ScannedLine> kept;
    std::unordered_map<std::string, std::size_t> byHash;
    // Same appender exclusion as compactStore: without it a writer
    // racing the temp+rename appends to the replaced (now orphaned)
    // inode and the record is silently lost.
    StoreLock lock(path);
    foldStore(path, /*dropOrphans=*/true, kept, byHash, stats);
    if (stats.filesRead == 0)
        return stats;

    if (opt.maxAgeSeconds > 0) {
        std::uint64_t now = opt.nowUnix;
        if (now == 0) {
            now = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::seconds>(
                    std::chrono::system_clock::now()
                        .time_since_epoch())
                    .count());
        }
        const std::uint64_t cutoff =
            now > opt.maxAgeSeconds ? now - opt.maxAgeSeconds : 0;
        std::vector<ScannedLine> young;
        for (auto &scanned : kept) {
            // Unstamped (pre-timestamp) records count as infinitely
            // old: gc is the one place age must be conservative.
            if (scanned.writtenUnix > 0 &&
                scanned.writtenUnix >= cutoff) {
                young.push_back(std::move(scanned));
            } else {
                ++stats.expired;
            }
        }
        kept = std::move(young);
    }

    if (opt.maxBytes > 0) {
        std::uintmax_t total = 0;
        for (const auto &scanned : kept)
            total += scanned.line.size() + 1;
        if (total > opt.maxBytes) {
            // Evict oldest first, ties broken by file order.
            std::vector<std::size_t> order(kept.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            std::stable_sort(order.begin(), order.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return kept[a].writtenUnix <
                                        kept[b].writtenUnix;
                             });
            std::vector<bool> evict(kept.size(), false);
            for (const std::size_t i : order) {
                if (total <= opt.maxBytes)
                    break;
                evict[i] = true;
                total -= kept[i].line.size() + 1;
                ++stats.evicted;
            }
            std::vector<ScannedLine> survivors;
            for (std::size_t i = 0; i < kept.size(); ++i) {
                if (!evict[i])
                    survivors.push_back(std::move(kept[i]));
            }
            kept = std::move(survivors);
        }
    }

    if (!writeStore(path, kept, stats))
        return std::nullopt;
    return stats;
}

} // namespace critics::runner
