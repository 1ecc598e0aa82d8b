#include "cpu/cpu.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <utility>

#include "isa/isa.hh"
#include "stats/interval.hh"
#include "stats/registry.hh"
#include "stats/trace_event.hh"
#include "support/logging.hh"

namespace critics::cpu
{

void
StageBreakdown::registerStats(stats::StatRegistry &reg,
                              const std::string &name) const
{
    reg.addVector(name,
                  {{"fetch", nullptr, &fetch},
                   {"decode", nullptr, &decode},
                   {"issueWait", nullptr, &issueWait},
                   {"execute", nullptr, &execute},
                   {"commitWait", nullptr, &commitWait},
                   {"insts", &insts, nullptr}},
                  "per-stage residency (cycles over instructions)");
}

void
CpuStats::registerStats(stats::StatRegistry &reg,
                        const std::string &prefix) const
{
    reg.addCounter(prefix + ".cycles", cycles, "execution cycles");
    reg.addCounter(prefix + ".committed", committed,
                   "committed instructions");
    reg.addFormula(prefix + ".ipc", [this] { return ipc(); },
                   "committed / cycles");
    reg.addCounter(prefix + ".fetch.stallForI.icache", stallForIIcache,
                   "F.StallForI cycles: i-cache miss");
    reg.addCounter(prefix + ".fetch.stallForI.redirect",
                   stallForIRedirect,
                   "F.StallForI cycles: branch redirect");
    reg.addCounter(prefix + ".fetch.stallForRd", stallForRd,
                   "F.StallForR+D cycles: back-pressure");
    reg.addFormula(prefix + ".fetch.fracStallForI",
                   [this] { return fracStallForI(); },
                   "F.StallForI / cycles");
    reg.addFormula(prefix + ".fetch.fracStallForRd",
                   [this] { return fracStallForRd(); },
                   "F.StallForR+D / cycles");
    reg.addCounter(prefix + ".fetch.windows", fetchWindows,
                   "i-cache fetch accesses");
    reg.addCounter(prefix + ".fetch.bytes", fetchedBytes,
                   "code bytes brought in by fetch");
    reg.addCounter(prefix + ".decode.cdpBubbles", decodeCdpBubbles,
                   "decode cycles lost to CDP format switches");
    reg.addCounter(prefix + ".branch.cond", condBranches,
                   "conditional branches fetched");
    reg.addCounter(prefix + ".branch.mispredicts", mispredicts,
                   "direction mispredictions");
    reg.addFormula(prefix + ".branch.mpki",
                   [this] {
                       return committed
                           ? 1000.0 * static_cast<double>(mispredicts) /
                                 static_cast<double>(committed)
                           : 0.0;
                   },
                   "mispredicts per kilo-instruction");
    all.registerStats(reg, prefix + ".stage.all");
    crit.registerStats(reg, prefix + ".stage.crit");
    reg.addValue(prefix + ".efetchAccuracy", efetchAccuracy,
                 "EFetch call-target prediction accuracy");
}

using program::DynIdx;
using program::DynInst;
using program::Trace;
using isa::OpClass;

namespace
{

constexpr std::uint32_t Unknown = 0xFFFFFFFFu;
constexpr std::uint32_t NoSlot = 0xFFFFFFFFu;

/** Functional-unit pools. */
enum class FuPool : std::uint8_t { Alu, MulDiv, Fp, Mem };

FuPool
poolOf(OpClass op)
{
    switch (op) {
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return FuPool::MulDiv;
      case OpClass::FloatAdd:
      case OpClass::FloatMul:
      case OpClass::FloatDiv:
        return FuPool::Fp;
      case OpClass::Load:
      case OpClass::Store:
        return FuPool::Mem;
      default:
        return FuPool::Alu;
    }
}

bool
unpipelined(OpClass op)
{
    return op == OpClass::IntDiv || op == OpClass::FloatDiv;
}

/** A pool of identical units, each able to start one op per cycle;
 *  unpipelined ops hold their unit until completion. */
class FuSet
{
  public:
    explicit FuSet(unsigned units) : busyUntil_(units, 0) {}

    bool
    tryIssue(std::uint64_t cycle, std::uint64_t holdUntil)
    {
        for (auto &busy : busyUntil_) {
            if (busy <= cycle) {
                busy = holdUntil;
                return true;
            }
        }
        return false;
    }

    /** First cycle at which some unit can start an op. */
    std::uint64_t
    freeAt() const
    {
        return *std::min_element(busyUntil_.begin(), busyUntil_.end());
    }

  private:
    std::vector<std::uint64_t> busyUntil_;
};

struct RobEntry
{
    DynIdx dyn = 0;
    float fetchLead = 0.0f; ///< share of upstream supply-stall cycles
    std::uint32_t fetchC = 0;
    std::uint32_t popC = 0;      ///< left the fetch queue
    std::uint32_t dispatchC = 0; ///< entered the ROB
    std::uint32_t issueC = 0;
    std::uint32_t completeC = 0;
    /** Next ROB slot on the same producer's waiter list. */
    std::uint32_t nextWaiter = NoSlot;
    bool issued = false;
};

/** An unissued ROB entry whose producers have all issued. */
struct Pending
{
    std::uint32_t readyC;
    std::uint32_t slot;

    /** Min-heap order on readyC for std::priority_queue. */
    bool operator>(const Pending &o) const { return readyC > o.readyC; }
};

struct FqEntry
{
    DynIdx dyn;
    std::uint32_t fetchC;
    float fetchLead;
};

struct PipeEntry
{
    DynIdx dyn;
    std::uint32_t fetchC;
    float fetchLead;
    std::uint32_t popC;
    std::uint32_t readyC;
};

} // namespace

CpuStats
runTrace(const Trace &trace, const CpuConfig &config,
         const mem::MemConfig &memConfig, bpu::BranchPredictor &bpu,
         const std::vector<std::uint8_t> *critMask,
         const std::unordered_set<program::InstUid> *criticalSet)
{
    critics_assert(!trace.insts.empty(), "empty trace");
    critics_assert(critMask == nullptr ||
                       critMask->size() == trace.size(),
                   "crit mask size mismatch");

    const auto n = static_cast<DynIdx>(trace.size());
    CpuStats stats;
    mem::MemorySystem memory(memConfig);
    mem::EFetchPredictor efetch;

    // Completion cycle of every dynamic instruction (Unknown until the
    // instruction issues).  Producers referenced by a consumer are
    // always either in the window or already complete, but keeping the
    // whole array also supports far-away (loop-carried) dependences.
    std::vector<std::uint32_t> resultCycle(trace.size(), Unknown);

    const bool usePriority =
        (config.aluPrioritization || config.backendPrio) &&
        criticalSet != nullptr;

    // Flatten the per-uid criticality set into a per-dynamic-index byte
    // mask once per run, so the issue partition and the prefetch hook
    // index an array instead of probing a hash set per instruction.
    // Uids are dense (Program::allocUid is sequential), so the
    // intermediate per-uid table is small.
    std::vector<std::uint8_t> critDyn;
    if (criticalSet != nullptr) {
        program::InstUid maxUid = 0;
        for (const DynInst &d : trace.insts)
            maxUid = std::max(maxUid, d.staticUid);
        std::vector<std::uint8_t> critUid(
            static_cast<std::size_t>(maxUid) + 1, 0);
        for (const program::InstUid uid : *criticalSet) {
            if (uid <= maxUid)
                critUid[uid] = 1;
        }
        critDyn.resize(trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i)
            critDyn[i] = critUid[trace.insts[i].staticUid];
    }

    auto isCritStatic = [&](DynIdx idx) {
        if (criticalSet == nullptr)
            return false;
        return critDyn[static_cast<std::size_t>(idx)] != 0;
    };

    // ---- Pipeline state --------------------------------------------------
    std::uint64_t cycle = 0;
    DynIdx fetchIdx = 0;
    std::uint64_t fetchBlockedUntil = 0;
    bool blockedOnIcache = false;
    DynIdx haltBranch = -1; ///< mispredicted branch gating fetch
    std::uint64_t cdpLatencyUntil = 0;
    double pendingSupplyStall = 0.0; ///< I-side stall cycles to attribute

    std::deque<FqEntry> fetchQ;
    std::deque<PipeEntry> decodePipe;
    const std::size_t decodePipeCap =
        static_cast<std::size_t>(config.decodeWidth) * 2 *
        (config.frontendLatency + 1);

    std::vector<RobEntry> rob(config.robSize);
    std::size_t robHead = 0, robCount = 0;

    FuSet alus(config.intAluUnits);
    FuSet muldivs(config.mulDivUnits);
    FuSet fpus(config.fpUnits);
    FuSet memPorts(config.memPorts);
    auto unitsFor = [&](OpClass op) -> FuSet & {
        switch (poolOf(op)) {
          case FuPool::MulDiv: return muldivs;
          case FuPool::Fp: return fpus;
          case FuPool::Mem: return memPorts;
          default: return alus;
        }
    };

    std::uint64_t committed = 0;
    bool warmupDone = (config.warmupCommits == 0);
    CpuStats warmupSnapshot;

    // ---- Issue wakeup ------------------------------------------------------
    // Every unissued ROB entry is in exactly one of two places:
    //  - on the waiter list of its first producer that has not issued
    //    (head in waitHead[producer], chained through nextWaiter); the
    //    producer's issue re-resolves it;
    //  - in `pending`, once every producer has issued and its ready
    //    cycle max(dispatchC+1, producers' resultCycle) is known.
    // At the top of each issue stage the entries whose ready cycle has
    // come move into `ready`, which is kept in program order, so it is
    // exactly the eligible list a program-order rescan of the window
    // would build.  A woken entry's ready cycle is at least its
    // producer's completion cycle, which lies after the waking cycle,
    // so waking mid-issue changes nothing this cycle.
    std::vector<std::uint32_t> waitHead(trace.size(), NoSlot);
    std::priority_queue<Pending, std::vector<Pending>, std::greater<>>
        pending;
    std::vector<std::uint32_t> ready;
    ready.reserve(config.robSize);
    std::vector<std::uint32_t> eligible; // `ready`, critical first
    eligible.reserve(config.robSize);

    auto resolve = [&](std::uint32_t slot) {
        RobEntry &entry = rob[slot];
        const DynInst &d = trace.insts[entry.dyn];
        std::uint32_t readyC = entry.dispatchC + 1;
        for (const DynIdx dep : {d.dep0, d.dep1}) {
            if (dep == program::NoDep)
                continue;
            const std::uint32_t rc = resultCycle[dep];
            if (rc == Unknown) {
                entry.nextWaiter = waitHead[dep];
                waitHead[dep] = slot;
                return;
            }
            readyC = std::max(readyC, rc);
        }
        pending.push({readyC, slot});
    };
    auto olderThan = [&](DynIdx dyn, std::uint32_t slot) {
        return dyn < rob[slot].dyn;
    };

    // Idle cycles skipped in jumps; the loop ran the other cycles.
    std::uint64_t skipped = 0;

    // ---- Observability hooks ---------------------------------------------
    // Interval rows hold *cumulative raw* values: the registry views the
    // live `stats` object, whose derived fields (cycles, mem) are
    // refreshed right before each sample.  Warmup subtraction happens
    // only on the returned totals, so (lastRow - warmupRow) reproduces
    // the reported post-warmup numbers.
    const bool sampling =
        config.intervals != nullptr && config.statsInterval > 0;
    stats::StatRegistry reg;
    if (sampling) {
        stats.registerStats(reg, "cpu");
        stats.mem.registerStats(reg, "mem");
    }
    std::uint64_t nextSample = config.statsInterval;
    auto sampleNow = [&](std::uint64_t cyclesSoFar) {
        stats.cycles = cyclesSoFar;
        stats.committed = committed;
        stats.mem = memory.stats();
        stats.efetchAccuracy = efetch.accuracy();
        config.intervals->sample(reg, committed);
    };

    stats::TraceEventWriter *tsink = config.traceSink;
    std::uint64_t tracedInsts = 0;
    if (tsink) {
        tsink->setProcessName(0, "cpu pipeline");
        tsink->setThreadName(0, 1, "fetch");
        tsink->setThreadName(0, 2, "decode");
        tsink->setThreadName(0, 3, "issueWait");
        tsink->setThreadName(0, 4, "execute");
        tsink->setThreadName(0, 5, "commitWait");
    }

    const std::uint64_t cycleLimit =
        200ull * trace.size() + 1000000ull;

    while (committed < static_cast<std::uint64_t>(n)) {
        critics_assert(cycle < cycleLimit,
                       "pipeline deadlock at cycle ", cycle,
                       " committed ", committed, "/", n);

        // ---- Commit -----------------------------------------------------
        unsigned comm = 0;
        while (comm < config.commitWidth && robCount > 0) {
            RobEntry &head = rob[robHead];
            if (!head.issued || head.completeC > cycle)
                break;
            const auto commitC = static_cast<std::uint32_t>(cycle);
            auto account = [&](StageBreakdown &b) {
                b.fetch += (head.popC - head.fetchC) + head.fetchLead;
                b.decode += head.dispatchC - head.popC;
                b.issueWait += head.issueC - head.dispatchC;
                b.execute += head.completeC - head.issueC;
                b.commitWait += commitC - head.completeC;
                ++b.insts;
            };
            account(stats.all);
            if (critMask && (*critMask)[head.dyn])
                account(stats.crit);
            if (tsink && warmupDone &&
                tracedInsts < config.traceMaxInsts) {
                // One span per stage, on the stage's own track, so the
                // viewer shows the classic pipeline diagram.  ts is in
                // simulated cycles (rendered as microseconds).
                const char *op =
                    isa::opClassName(trace.insts[head.dyn].op);
                const auto dyn = static_cast<double>(head.dyn);
                auto span = [&](std::uint32_t from, std::uint32_t to,
                                std::uint32_t tid) {
                    if (to > from) {
                        tsink->complete(op, "pipeline", from, to - from,
                                        0, tid, "dyn", dyn);
                    }
                };
                span(head.fetchC, head.popC, 1);
                span(head.popC, head.dispatchC, 2);
                span(head.dispatchC, head.issueC, 3);
                span(head.issueC, head.completeC, 4);
                span(head.completeC, commitC, 5);
                ++tracedInsts;
            }
            robHead = (robHead + 1) % config.robSize;
            --robCount;
            ++committed;
            ++comm;
        }

        // ---- Issue ------------------------------------------------------
        while (!pending.empty() && pending.top().readyC <= cycle) {
            const std::uint32_t slot = pending.top().slot;
            pending.pop();
            ready.insert(std::upper_bound(ready.begin(), ready.end(),
                                          rob[slot].dyn, olderThan),
                         slot);
        }

        const std::vector<std::uint32_t> *order = &ready;
        if (usePriority && !ready.empty()) {
            eligible.assign(ready.begin(), ready.end());
            std::stable_partition(eligible.begin(), eligible.end(),
                [&](std::uint32_t slot) {
                    return isCritStatic(rob[slot].dyn);
                });
            order = &eligible;
        }

        unsigned issuedCount = 0;
        for (const std::uint32_t slot : *order) {
            if (issuedCount >= config.issueWidth)
                break;
            RobEntry &entry = rob[slot];
            const DynInst &d = trace.insts[entry.dyn];
            FuSet &fus = unitsFor(d.op);

            std::uint32_t completeC;
            if (poolOf(d.op) == FuPool::Mem) {
                // Acquire the port before touching the cache model.
                if (!fus.tryIssue(cycle, cycle + 1))
                    continue;
                if (d.isLoad()) {
                    const auto res = memory.load(d.memAddr, cycle);
                    completeC = static_cast<std::uint32_t>(
                        cycle + res.latency);
                } else {
                    memory.store(d.memAddr, cycle);
                    completeC = static_cast<std::uint32_t>(cycle + 1);
                }
            } else {
                completeC = static_cast<std::uint32_t>(
                    cycle + isa::execLatency(d.op));
                const std::uint64_t hold =
                    unpipelined(d.op) ? completeC : cycle + 1;
                if (!fus.tryIssue(cycle, hold))
                    continue;
            }

            entry.issued = true;
            entry.issueC = static_cast<std::uint32_t>(cycle);
            entry.completeC = completeC;
            resultCycle[entry.dyn] = completeC;
            std::uint32_t w = std::exchange(waitHead[entry.dyn], NoSlot);
            while (w != NoSlot) {
                const std::uint32_t next = rob[w].nextWaiter;
                resolve(w);
                w = next;
            }
            ++issuedCount;
        }

        if (issuedCount > 0) {
            ready.erase(std::remove_if(ready.begin(), ready.end(),
                                       [&](std::uint32_t slot) {
                                           return rob[slot].issued;
                                       }),
                        ready.end());
        }

        // ---- Dispatch (decode/rename pipe -> ROB) -------------------------
        unsigned dispatchBytes = 0;
        const unsigned frontBytes = config.frontendBytes;
        const bool dispatching =
            !decodePipe.empty() && robCount < config.robSize &&
            decodePipe.front().readyC <= cycle;
        while (dispatchBytes < frontBytes && !decodePipe.empty() &&
               robCount < config.robSize) {
            const PipeEntry &pe = decodePipe.front();
            if (pe.readyC > cycle)
                break;
            dispatchBytes += trace.insts[pe.dyn].sizeBytes;
            const auto slot = static_cast<std::uint32_t>(
                (robHead + robCount) % config.robSize);
            RobEntry &entry = rob[slot];
            entry = RobEntry{};
            entry.dyn = pe.dyn;
            entry.fetchC = pe.fetchC;
            entry.fetchLead = pe.fetchLead;
            entry.popC = pe.popC;
            entry.dispatchC = static_cast<std::uint32_t>(cycle);
            ++robCount;
            resolve(slot);
            decodePipe.pop_front();
        }

        // ---- Decode (fetch queue -> decode/rename pipe) --------------------
        // The decoder consumes word slots: one 32-bit instruction or a
        // pair of 16-bit ones per slot, so 16-bit code doubles the
        // front-end instruction rate (the paper's fetch-bandwidth
        // argument for the Thumb format).
        unsigned decodeBytes = 0;
        const bool decoding =
            !fetchQ.empty() && decodePipe.size() < decodePipeCap;
        while (decodeBytes < frontBytes && !fetchQ.empty() &&
               decodePipe.size() < decodePipeCap) {
            const FqEntry fe = fetchQ.front();
            fetchQ.pop_front();
            decodeBytes += trace.insts[fe.dyn].sizeBytes;
            if (trace.insts[fe.dyn].op == OpClass::Cdp) {
                // The CDP is a decoder directive: it consumes its fetch
                // and decode bytes and adds one cycle of decode *latency*
                // while the format switch takes effect (the paper's
                // conservative +1 decode-stage delay), but never enters
                // the ROB and does not stall decode throughput.
                cdpLatencyUntil = cycle + 1;
                stats.decodeCdpBubbles += config.cdpExtraDecode;
                ++committed; // retires here for bookkeeping
                continue;
            }
            const unsigned cdpPenalty =
                cycle <= cdpLatencyUntil ? config.cdpExtraDecode : 0;
            decodePipe.push_back(
                {fe.dyn, fe.fetchC, fe.fetchLead,
                 static_cast<std::uint32_t>(cycle),
                 static_cast<std::uint32_t>(
                     cycle + config.frontendLatency + cdpPenalty)});
        }

        // ---- Fetch --------------------------------------------------------
        unsigned fetched = 0;
        bool deliveredAny = false;
        bool sawIcacheMissNow = false;
        const bool blocked = cycle < fetchBlockedUntil;
        bool fetchActed = false; // redirect resolved or i-cache probed

        if (haltBranch >= 0 && resultCycle[haltBranch] != Unknown) {
            // The mispredicted branch has resolved; charge the redirect.
            fetchBlockedUntil = std::max<std::uint64_t>(
                fetchBlockedUntil,
                static_cast<std::uint64_t>(resultCycle[haltBranch]) +
                    config.redirectPenalty);
            blockedOnIcache = false;
            haltBranch = -1;
            fetchActed = true;
        }

        if (!blocked && haltBranch < 0 && fetchIdx < n) {
            std::uint64_t windowBase = 0;
            bool haveWindow = false;
            while (fetched < config.fetchWidth &&
                   fetchQ.size() < config.fetchQueueSize &&
                   fetchIdx < n) {
                const DynInst &d = trace.insts[fetchIdx];
                if (!haveWindow) {
                    windowBase = d.address &
                        ~static_cast<std::uint64_t>(
                            config.fetchBytes - 1);
                    const auto res =
                        memory.fetchInst(d.address, cycle);
                    ++stats.fetchWindows;
                    fetchActed = true;
                    if (res.latency > memConfig.icache.hitLatency) {
                        // Miss (or in-flight fill): stall fetch until
                        // the line arrives; hits are pipelined.
                        fetchBlockedUntil =
                            cycle + res.latency -
                            memConfig.icache.hitLatency;
                        blockedOnIcache = true;
                        sawIcacheMissNow = true;
                        break;
                    }
                    haveWindow = true;
                }
                if (d.address < windowBase ||
                    d.address + d.sizeBytes >
                        windowBase + config.fetchBytes) {
                    break; // next fetch window, next cycle
                }

                fetchQ.push_back(
                    {fetchIdx, static_cast<std::uint32_t>(cycle), 0.0f});
                // A CDP shares its 32-bit word with the first 16-bit
                // instruction (Fig. 9), so it does not consume a fetch
                // slot of its own — only its bytes.
                if (d.op != OpClass::Cdp)
                    ++fetched;
                deliveredAny = true;
                stats.fetchedBytes += d.sizeBytes;

                // Mechanism hooks at fetch.
                if (config.criticalLoadPrefetch && d.isLoad() &&
                    isCritStatic(fetchIdx)) {
                    memory.prefetchData(d.memAddr, cycle);
                }
                if (config.efetch && d.op == OpClass::Call) {
                    const mem::Addr predicted = efetch.predictAndTrain(
                        d.address, d.branchTarget);
                    if (predicted != 0) {
                        for (unsigned k = 0; k < 4; ++k) {
                            memory.prefetchInst(predicted + 64ull * k,
                                                cycle);
                        }
                    }
                }

                const DynIdx thisIdx = fetchIdx;
                ++fetchIdx;

                if (d.isControl()) {
                    if (d.isCond()) {
                        ++stats.condBranches;
                        const bool correct =
                            bpu.predictAndTrain(d.address, d.taken());
                        if (!correct) {
                            ++stats.mispredicts;
                            haltBranch = thisIdx;
                            break;
                        }
                    }
                    if (d.taken())
                        break; // taken transfer ends the fetch group
                }
            }
        }

        // ---- Front-end stall attribution ----------------------------------
        std::uint64_t *stallCounter = nullptr; // bumped this cycle
        bool supplyStall = false;              // an F.StallForI class
        if (!deliveredAny && fetchIdx < n) {
            if (blocked || sawIcacheMissNow) {
                stallCounter = blockedOnIcache ? &stats.stallForIIcache
                                               : &stats.stallForIRedirect;
                supplyStall = true;
            } else if (haltBranch >= 0) {
                stallCounter = &stats.stallForIRedirect;
                supplyStall = true;
            } else if (fetchQ.size() >= config.fetchQueueSize) {
                stallCounter = &stats.stallForRd;
            }
            if (stallCounter != nullptr)
                ++*stallCounter;
            if (supplyStall)
                pendingSupplyStall += 1.0;
        } else if (deliveredAny && pendingSupplyStall > 0.0) {
            // Attribute accumulated supply-stall cycles to the freshly
            // fetched group: this is the inherited "fetch stage" time
            // of these instructions in the Fig. 3 sense.
            const unsigned delivered = std::max(fetched, 1u);
            const float lead = static_cast<float>(
                pendingSupplyStall / static_cast<double>(delivered));
            for (std::size_t k = fetchQ.size() - delivered;
                 k < fetchQ.size(); ++k) {
                fetchQ[k].fetchLead = lead;
            }
            pendingSupplyStall = 0.0;
        }
        if (!blocked && cycle >= fetchBlockedUntil && haltBranch < 0)
            blockedOnIcache = false;

        if (!warmupDone && committed >= config.warmupCommits) {
            warmupDone = true;
            warmupSnapshot = stats;
            warmupSnapshot.cycles = cycle + 1;
            warmupSnapshot.committed = committed;
            warmupSnapshot.mem = memory.stats();
            // Force a row at the warmup boundary so the post-warmup
            // window can be recovered from the series alone.
            if (sampling)
                sampleNow(cycle + 1);
        }
        if (sampling && committed >= nextSample) {
            sampleNow(cycle + 1);
            while (nextSample <= committed)
                nextSample += config.statsInterval;
        }

        ++cycle;

        // ---- Idle-cycle skip ----------------------------------------------
        // A cycle that committed, issued, dispatched and decoded
        // nothing, probed no i-cache line and resolved no redirect
        // changed nothing but one stall counter, and every following
        // cycle repeats it exactly until one of the events below.  Jump
        // there and charge the skipped cycles as running them would.
        if (comm == 0 && issuedCount == 0 && !dispatching && !decoding &&
            !fetchActed) {
            std::uint64_t next = cycleLimit;
            auto until = [&](std::uint64_t c) { next = std::min(next, c); };
            // A ready entry that did not issue is held back only by
            // its busy unit pool.
            for (const std::uint32_t slot : ready)
                until(unitsFor(trace.insts[rob[slot].dyn].op).freeAt());
            if (robCount > 0 && rob[robHead].issued)
                until(rob[robHead].completeC);
            if (!pending.empty())
                until(pending.top().readyC);
            if (!decodePipe.empty() && robCount < config.robSize)
                until(decodePipe.front().readyC);
            if (fetchBlockedUntil >= cycle)
                until(fetchBlockedUntil);
            if (next > cycle) {
                const std::uint64_t k = next - cycle;
                if (stallCounter != nullptr)
                    *stallCounter += k;
                // Integer-valued, so adding k equals k additions of 1.0.
                if (supplyStall)
                    pendingSupplyStall += static_cast<double>(k);
                skipped += k;
                cycle = next;
            }
        }
    }

    stats.cycles = cycle;
    stats.committed = committed;
    stats.mem = memory.stats();
    stats.efetchAccuracy = efetch.accuracy();
    // Final forced row: cumulative end-of-run values, before any warmup
    // subtraction (a repeated index overwrites the periodic row).
    if (sampling)
        config.intervals->sample(reg, committed);
    critics_debug("cpu", committed, " insts in ", cycle,
                  " cycles (warmup ", config.warmupCommits, "; ", skipped,
                  " idle cycles skipped, ", cycle - skipped,
                  " loop iterations)");

    if (config.warmupCommits > 0) {
        // Report the post-warmup window only.
        auto sub = [](std::uint64_t &a, std::uint64_t b) {
            a = a >= b ? a - b : 0;
        };
        sub(stats.cycles, warmupSnapshot.cycles);
        sub(stats.committed, warmupSnapshot.committed);
        sub(stats.stallForIIcache, warmupSnapshot.stallForIIcache);
        sub(stats.stallForIRedirect, warmupSnapshot.stallForIRedirect);
        sub(stats.stallForRd, warmupSnapshot.stallForRd);
        sub(stats.decodeCdpBubbles, warmupSnapshot.decodeCdpBubbles);
        sub(stats.fetchedBytes, warmupSnapshot.fetchedBytes);
        sub(stats.condBranches, warmupSnapshot.condBranches);
        sub(stats.mispredicts, warmupSnapshot.mispredicts);
        sub(stats.fetchWindows, warmupSnapshot.fetchWindows);
        auto subBreak = [](StageBreakdown &a, const StageBreakdown &b) {
            a.fetch -= b.fetch;
            a.decode -= b.decode;
            a.issueWait -= b.issueWait;
            a.execute -= b.execute;
            a.commitWait -= b.commitWait;
            a.insts -= b.insts;
        };
        subBreak(stats.all, warmupSnapshot.all);
        subBreak(stats.crit, warmupSnapshot.crit);
        auto subCache = [&](mem::CacheStats &a,
                            const mem::CacheStats &b) {
            sub(a.accesses, b.accesses);
            sub(a.misses, b.misses);
            sub(a.prefetchFills, b.prefetchFills);
            sub(a.prefetchHits, b.prefetchHits);
        };
        subCache(stats.mem.icache, warmupSnapshot.mem.icache);
        subCache(stats.mem.dcache, warmupSnapshot.mem.dcache);
        subCache(stats.mem.l2, warmupSnapshot.mem.l2);
        sub(stats.mem.dram.reads, warmupSnapshot.mem.dram.reads);
        sub(stats.mem.dram.rowHits, warmupSnapshot.mem.dram.rowHits);
        sub(stats.mem.dram.rowConflicts,
            warmupSnapshot.mem.dram.rowConflicts);
        sub(stats.mem.dram.activates, warmupSnapshot.mem.dram.activates);
        sub(stats.mem.dram.totalLatency,
            warmupSnapshot.mem.dram.totalLatency);
        sub(stats.mem.storeAccesses, warmupSnapshot.mem.storeAccesses);
    }
    return stats;
}

} // namespace critics::cpu
