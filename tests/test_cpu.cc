/**
 * @file
 * Pipeline-model tests: throughput bounds, dependence serialization,
 * functional-unit structural hazards, stall attribution, warmup
 * accounting, branch redirects, format handling and the hardware
 * mechanism hooks.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cpu/cpu.hh"
#include "helpers.hh"
#include "sim/experiment.hh"
#include "stats/interval.hh"
#include "stats/trace_event.hh"
#include "support/rng.hh"

using namespace critics;
using namespace critics::test;
using cpu::CpuConfig;
using cpu::CpuStats;

namespace
{

CpuStats
run(const program::Trace &trace, CpuConfig cfg = CpuConfig{},
    mem::MemConfig memCfg = mem::MemConfig{})
{
    bpu::PerfectPredictor bp;
    return cpu::runTrace(trace, cfg, memCfg, bp);
}

} // namespace

TEST(Pipeline, CommitsEverything)
{
    const auto trace = independentAluTrace(5000);
    const auto stats = run(trace);
    EXPECT_EQ(stats.committed, trace.size());
    EXPECT_GT(stats.cycles, 0u);
}

TEST(Pipeline, IpcNeverExceedsCommitWidth)
{
    const auto stats = run(independentAluTrace(20000));
    EXPECT_LE(stats.ipc(), 4.0 + 1e-9);
}

TEST(Pipeline, ArmCodeIsFetchBandwidthLimited)
{
    // 8-byte front end: 32-bit code cannot exceed 2 IPC.
    const auto stats = run(independentAluTrace(20000));
    EXPECT_LE(stats.ipc(), 2.0 + 1e-9);
    EXPECT_GT(stats.ipc(), 1.6);
}

TEST(Pipeline, ThumbCodeDoublesFrontendRate)
{
    program::Trace thumb;
    for (int i = 0; i < 20000; ++i) {
        thumb.insts.push_back(dyn(i % 256, 0x10000 + 2 * (i % 256),
                                  OpClass::IntAlu, program::NoDep,
                                  program::NoDep, 2));
    }
    // Give the back end headroom so only the front end limits.
    CpuConfig cfg;
    cfg.intAluUnits = 6;
    const auto armIpc = run(independentAluTrace(20000), cfg).ipc();
    const auto thumbIpc = run(thumb, cfg).ipc();
    EXPECT_GT(thumbIpc, armIpc * 1.5);
}

TEST(Pipeline, SerialChainRunsAtOneIpc)
{
    const auto stats = run(serialChainTrace(10000));
    EXPECT_NEAR(stats.ipc(), 1.0, 0.1);
}

TEST(Pipeline, DivStallsStructurally)
{
    // Unpipelined divides on the single mul/div unit bound throughput
    // at 1/latency.
    program::Trace divs;
    for (int i = 0; i < 2000; ++i)
        divs.insts.push_back(dyn(i % 64, 0x10000 + 4 * (i % 64),
                                 OpClass::IntDiv));
    const auto stats = run(divs);
    EXPECT_LT(stats.ipc(), 1.0 / (isa::execLatency(OpClass::IntDiv) - 2));
}

TEST(Pipeline, MulsArePipelined)
{
    program::Trace muls;
    for (int i = 0; i < 4000; ++i)
        muls.insts.push_back(dyn(i % 64, 0x10000 + 4 * (i % 64),
                                 OpClass::IntMult));
    // One mul/div unit, pipelined: ~1 per cycle.
    EXPECT_NEAR(run(muls).ipc(), 1.0, 0.1);
}

TEST(Pipeline, LoadsLimitedByMemPorts)
{
    program::Trace loads;
    for (int i = 0; i < 4000; ++i) {
        auto d = dyn(i % 64, 0x10000 + 4 * (i % 64), OpClass::Load);
        d.memAddr = 0x40000000 + 64 * (i % 16); // hot, always L1
        loads.insts.push_back(d);
    }
    // 2 ports but the front end supplies only 2/cycle anyway.
    EXPECT_LE(run(loads).ipc(), 2.0 + 1e-9);
}

TEST(Pipeline, ColdLoadsStallBackend)
{
    program::Trace loads;
    for (int i = 0; i < 3000; ++i) {
        auto d = dyn(static_cast<std::uint32_t>(i),
                     0x10000 + 4 * (i % 64), OpClass::Load);
        d.memAddr = 0x50000000u + 4096u * static_cast<std::uint32_t>(i);
        if (i > 0)
            d.dep0 = i - 1; // dependent chain of misses
        loads.insts.push_back(d);
    }
    const auto stats = run(loads);
    EXPECT_LT(stats.ipc(), 0.1);
}

TEST(Pipeline, MispredictsBlockFetch)
{
    // Unpredictable conditional branches with a real predictor.
    program::Trace trace;
    Rng rng(5);
    for (int i = 0; i < 8000; ++i) {
        auto d = dyn(i % 128, 0x10000 + 4 * (i % 128), OpClass::IntAlu);
        if (i % 8 == 7) {
            d.op = OpClass::Branch;
            d.setCond(true);
            d.setTaken(rng.chance(0.5));
            d.branchTarget = 0x10000 + 4 * ((i + 1) % 128);
        }
        trace.insts.push_back(d);
    }
    CpuConfig cfg;
    mem::MemConfig memCfg;
    bpu::TwoLevelPredictor real;
    const auto realStats = cpu::runTrace(trace, cfg, memCfg, real);
    bpu::PerfectPredictor perfect;
    const auto perfectStats = cpu::runTrace(trace, cfg, memCfg, perfect);
    EXPECT_GT(realStats.mispredicts, 100u);
    EXPECT_GT(realStats.stallForIRedirect, 1000u);
    EXPECT_LT(perfectStats.cycles, realStats.cycles);
    EXPECT_EQ(perfectStats.mispredicts, 0u);
}

TEST(Pipeline, TakenBranchesBreakFetchGroups)
{
    // Tight loop of taken branches: every instruction ends its group.
    program::Trace trace;
    for (int i = 0; i < 4000; ++i) {
        auto d = dyn(0, 0x10000, OpClass::Branch);
        d.setTaken(true);
        d.branchTarget = 0x10000;
        trace.insts.push_back(d);
    }
    const auto stats = run(trace);
    EXPECT_LT(stats.ipc(), 1.1);
}

TEST(Pipeline, IcacheMissesAttributedToStallForI)
{
    // March through far more code than the i-cache holds.
    program::Trace trace;
    for (int i = 0; i < 60000; ++i)
        trace.insts.push_back(dyn(static_cast<std::uint32_t>(i),
                                  0x10000 + 4u * static_cast<std::uint32_t>(i),
                                  OpClass::IntAlu));
    const auto stats = run(trace);
    EXPECT_GT(stats.stallForIIcache, stats.cycles / 20);
    EXPECT_GT(stats.mem.icache.misses, 1000u);
}

TEST(Pipeline, StallRdWhenBackendClogged)
{
    // Serial chain of multiplies: the window fills, the fetch queue
    // backs up, and F.StallForR+D dominates.
    program::Trace trace;
    for (int i = 0; i < 8000; ++i) {
        auto d = dyn(i % 128, 0x10000 + 4 * (i % 128), OpClass::IntMult);
        if (i > 0)
            d.dep0 = i - 1;
        trace.insts.push_back(d);
    }
    const auto stats = run(trace);
    EXPECT_GT(stats.fracStallForRd(), 0.3);
    EXPECT_LT(stats.fracStallForI(), 0.05);
}

TEST(Pipeline, StageBreakdownSumsToResidency)
{
    const auto trace = serialChainTrace(4000);
    const auto stats = run(trace);
    const auto &b = stats.all;
    EXPECT_EQ(b.insts, trace.size());
    EXPECT_GT(b.total(), 0.0);
    // Execute time of a 1-cycle ALU chain is exactly 1 per instruction.
    EXPECT_NEAR(b.execute / static_cast<double>(b.insts), 1.0, 1e-9);
}

TEST(Pipeline, CritMaskSelectsSubset)
{
    const auto trace = independentAluTrace(4000);
    std::vector<std::uint8_t> mask(trace.size(), 0);
    for (std::size_t i = 0; i < mask.size(); i += 10)
        mask[i] = 1;
    CpuConfig cfg;
    mem::MemConfig memCfg;
    bpu::PerfectPredictor bp;
    const auto stats = cpu::runTrace(trace, cfg, memCfg, bp, &mask);
    EXPECT_EQ(stats.crit.insts, trace.size() / 10);
    EXPECT_LT(stats.crit.total(), stats.all.total());
}

TEST(Pipeline, WarmupExcludesColdStart)
{
    // Code footprint bigger than L1 but revisited: warm IPC beats cold.
    program::Trace trace;
    const std::size_t loop = 20000; // 80KB of code
    for (int rep = 0; rep < 4; ++rep)
        for (std::size_t i = 0; i < loop; ++i)
            trace.insts.push_back(dyn(
                static_cast<std::uint32_t>(i),
                static_cast<std::uint32_t>(0x10000 + 4 * i),
                OpClass::IntAlu));
    CpuConfig cold;
    const auto coldStats = run(trace, cold);
    CpuConfig warm;
    warm.warmupCommits = loop;
    const auto warmStats = run(trace, warm);
    EXPECT_EQ(warmStats.committed, trace.size() - loop);
    EXPECT_LT(warmStats.cycles, coldStats.cycles);
    EXPECT_LE(warmStats.mem.icache.misses, coldStats.mem.icache.misses);
}

TEST(Pipeline, CdpRetiresWithoutRobEntry)
{
    program::Trace trace;
    for (int i = 0; i < 3000; ++i) {
        if (i % 6 == 0) {
            auto c = dyn(i % 60, 0x10000 + 2 * (i % 60), OpClass::Cdp,
                         program::NoDep, program::NoDep, 2);
            c.cdpRun = 5;
            trace.insts.push_back(c);
        } else {
            trace.insts.push_back(dyn(i % 60, 0x10000 + 2 * (i % 60),
                                      OpClass::IntAlu, program::NoDep,
                                      program::NoDep, 2));
        }
    }
    const auto stats = run(trace);
    EXPECT_EQ(stats.committed, trace.size());
    EXPECT_GT(stats.decodeCdpBubbles, 0u);
    // CDPs never reach the breakdown (they retire at decode).
    EXPECT_EQ(stats.all.insts, trace.size() - trace.size() / 6);
}

TEST(Pipeline, DoubleFrontendHelpsWideCode)
{
    const auto trace = independentAluTrace(20000);
    CpuConfig base;
    const auto baseStats = run(trace, base);
    CpuConfig wide;
    wide.doubleFrontend();
    wide.intAluUnits = 6;
    const auto wideStats = run(trace, wide);
    EXPECT_LT(wideStats.cycles, baseStats.cycles);
    EXPECT_GT(wideStats.ipc(), 2.5);
}

TEST(Pipeline, CriticalLoadPrefetchHidesMissLatency)
{
    // Loads that miss badly, marked critical; prefetch-at-fetch should
    // cut cycles.
    // Latency-bound (not bandwidth-bound): a miss every 25
    // instructions whose consumer chain gates progress.
    program::Trace trace;
    std::unordered_set<program::InstUid> critSet;
    for (int i = 0; i < 10000; ++i) {
        if (i % 25 == 0) {
            auto d = dyn(7, 0x10000 + 4 * (i % 200), OpClass::Load);
            d.memAddr =
                0x50000000u + 4096u * static_cast<std::uint32_t>(i);
            trace.insts.push_back(d);
        } else {
            auto d = dyn(i % 200, 0x10000 + 4 * (i % 200),
                         OpClass::IntAlu);
            if (i % 25 >= 1 && i % 25 <= 8)
                d.dep0 = i - 1; // dependent chain behind the load
            trace.insts.push_back(d);
        }
    }
    critSet.insert(7);
    CpuConfig cfg;
    mem::MemConfig memCfg;
    bpu::PerfectPredictor bp1, bp2;
    const auto off = cpu::runTrace(trace, cfg, memCfg, bp1);
    cfg.criticalLoadPrefetch = true;
    const auto on =
        cpu::runTrace(trace, cfg, memCfg, bp2, nullptr, &critSet);
    // The direct mechanism: loads complete faster (their execute-stage
    // residency shrinks).  Whole-app cycles are exercised by the
    // Fig. 1a bench at realistic memory utilization.
    EXPECT_LT(on.all.execute, off.all.execute);
    EXPECT_GT(on.mem.dcache.prefetchHits, 20u);
}

TEST(Pipeline, RejectsBadInput)
{
    program::Trace empty;
    CpuConfig cfg;
    mem::MemConfig memCfg;
    bpu::PerfectPredictor bp;
    EXPECT_THROW(cpu::runTrace(empty, cfg, memCfg, bp),
                 std::logic_error);

    const auto trace = independentAluTrace(16);
    std::vector<std::uint8_t> badMask(3, 0);
    EXPECT_THROW(cpu::runTrace(trace, cfg, memCfg, bp, &badMask),
                 std::logic_error);
}

TEST(Pipeline, SelfDependenceDeadlockIsReported)
{
    // An instruction that waits on itself can never issue: the run must
    // end in the cycle-limit deadlock assert, not spin or hang.
    auto trace = independentAluTrace(64);
    trace.insts[10].dep0 = 10;
    CpuConfig cfg;
    mem::MemConfig memCfg;
    bpu::PerfectPredictor bp;
    try {
        cpu::runTrace(trace, cfg, memCfg, bp);
        FAIL() << "runTrace returned from a deadlocked pipeline";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("pipeline deadlock"),
                  std::string::npos)
            << e.what();
    }
}

class PipelineWidths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PipelineWidths, MoreAlusNeverSlower)
{
    program::Trace mixed;
    Rng rng(3);
    for (int i = 0; i < 8000; ++i) {
        auto d = dyn(i % 128, 0x10000 + 4 * (i % 128), OpClass::IntAlu);
        if (i % 3 == 0 && i > 0)
            d.dep0 = i - 1;
        mixed.insts.push_back(d);
    }
    CpuConfig narrow;
    narrow.intAluUnits = 1;
    CpuConfig wide;
    wide.intAluUnits = GetParam();
    EXPECT_LE(run(mixed, wide).cycles, run(mixed, narrow).cycles);
}

INSTANTIATE_TEST_SUITE_P(AluCounts, PipelineWidths,
                         ::testing::Values(2u, 3u, 4u, 6u));

// ---- Golden statistics -----------------------------------------------------
// Every CpuStats field of a handful of representative runs, pinned to the
// values the simulator produced before its issue stage became
// event-driven and it learned to skip idle cycles.  Any change to the
// pipeline's arithmetic shows up here, field by field; doubles compare
// exactly.  Re-capture the values only for a deliberate model change
// (or a change to trace synthesis, which feeds the app runs).

namespace
{

std::vector<std::pair<std::string, double>>
flatten(const CpuStats &s)
{
    std::vector<std::pair<std::string, double>> out;
    auto add = [&](const std::string &name, double v) {
        out.emplace_back(name, v);
    };
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    add("cycles", u(s.cycles));
    add("committed", u(s.committed));
    add("stallForIIcache", u(s.stallForIIcache));
    add("stallForIRedirect", u(s.stallForIRedirect));
    add("stallForRd", u(s.stallForRd));
    add("decodeCdpBubbles", u(s.decodeCdpBubbles));
    add("fetchedBytes", u(s.fetchedBytes));
    add("condBranches", u(s.condBranches));
    add("mispredicts", u(s.mispredicts));
    add("fetchWindows", u(s.fetchWindows));
    for (const auto &[tag, b] :
         {std::pair<const char *, const cpu::StageBreakdown *>{"all", &s.all},
          {"crit", &s.crit}}) {
        const std::string p = tag;
        add(p + ".fetch", b->fetch);
        add(p + ".decode", b->decode);
        add(p + ".issueWait", b->issueWait);
        add(p + ".execute", b->execute);
        add(p + ".commitWait", b->commitWait);
        add(p + ".insts", u(b->insts));
    }
    for (const auto &[tag, c] :
         {std::pair<const char *, const mem::CacheStats *>{"icache",
                                                           &s.mem.icache},
          {"dcache", &s.mem.dcache},
          {"l2", &s.mem.l2}}) {
        const std::string p = tag;
        add(p + ".accesses", u(c->accesses));
        add(p + ".misses", u(c->misses));
        add(p + ".prefetchFills", u(c->prefetchFills));
        add(p + ".prefetchHits", u(c->prefetchHits));
    }
    add("dram.reads", u(s.mem.dram.reads));
    add("dram.rowHits", u(s.mem.dram.rowHits));
    add("dram.rowConflicts", u(s.mem.dram.rowConflicts));
    add("dram.activates", u(s.mem.dram.activates));
    add("dram.totalLatency", u(s.mem.dram.totalLatency));
    add("stride.trains", u(s.mem.stride.trains));
    add("stride.issued", u(s.mem.stride.issued));
    add("storeAccesses", u(s.mem.storeAccesses));
    add("efetchAccuracy", s.efetchAccuracy);
    return out;
}

void
expectGolden(const CpuStats &stats, const std::vector<double> &want)
{
    const auto got = flatten(stats);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].second, want[i]) << got[i].first;
}

/** A small, deterministic slice of a registered app's baseline trace. */
sim::AppExperiment
goldenApp(const std::string &name)
{
    auto profile = workload::findApp(name);
    profile.numFunctions = std::min(profile.numFunctions, 120u);
    profile.dispatchTargets = std::min(profile.dispatchTargets, 24u);
    sim::ExperimentOptions opt;
    opt.traceInsts = 40000;
    return sim::AppExperiment(profile, opt);
}

CpuStats
runReal(const program::Trace &trace, const CpuConfig &cfg,
        const std::vector<std::uint8_t> *mask = nullptr,
        const std::unordered_set<program::InstUid> *critSet = nullptr)
{
    bpu::TwoLevelPredictor bp;
    return cpu::runTrace(trace, cfg, mem::MemConfig{}, bp, mask, critSet);
}

/** 64-bit FNV-1a over every row's index and raw value bits. */
std::uint64_t
hashRows(const stats::IntervalSeries &series)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    for (const auto &row : series.rows()) {
        mix(row.index);
        for (const double v : row.values) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof bits);
            mix(bits);
        }
    }
    return h;
}

} // namespace

TEST(PipelineGolden, McfBaseline)
{
    auto exp = goldenApp("mcf");
    const auto stats = runReal(exp.baseTrace(), CpuConfig{});
    expectGolden(stats,
        {44731, 40010, 1926, 5386, 15730, 0, 160040, 1444, 104, 21567,
         1028974, 893556, 231629, 262485, 4617350, 40010, 0, 0, 0, 0, 0,
         0, 21567, 20, 0, 0, 2903, 1606, 0, 0, 1626, 1620, 1, 1, 1621,
         51, 1554, 1570, 202469, 1606, 1, 86, 0});
}

TEST(PipelineGolden, MobileCritMaskWithWarmup)
{
    auto exp = goldenApp("Acrobat");
    CpuConfig cfg;
    cfg.warmupCommits = exp.baseTrace().size() / 4;
    const auto stats =
        runReal(exp.baseTrace(), cfg, &exp.fanout().critMask);
    expectGolden(stats,
        {20552, 30015, 3106, 1127, 838, 0, 119912, 584, 34, 15448,
         166304, 190496, 482519, 40520, 384531, 30015, 13412, 14630,
         22263, 12256, 35737, 2332, 15448, 40, 0, 0, 682, 136, 0, 0,
         176, 176, 0, 0, 176, 160, 14, 16, 10876, 218, 0, 2, 0});
}

TEST(PipelineGolden, IssuePrioritization)
{
    auto exp = goldenApp("Youtube");
    CpuConfig cfg;
    cfg.aluPrioritization = true;
    cfg.backendPrio = true;
    const auto stats = runReal(exp.baseTrace(), cfg, &exp.fanout().critMask,
                               &exp.criticalSet());
    expectGolden(stats,
        {43837, 40003, 19549, 2609, 1254, 0, 160012, 564, 63, 20675,
         295554, 327116, 661065, 69465, 971546, 40003, 19738, 20793,
         19064, 22354, 73690, 2549, 20675, 267, 0, 0, 973, 410, 0, 0,
         677, 598, 58, 55, 656, 539, 104, 117, 45403, 410, 59, 53, 0});
}

TEST(PipelineGolden, CriticalLoadPrefetchAndEfetch)
{
    auto exp = goldenApp("Browser");
    CpuConfig cfg;
    cfg.criticalLoadPrefetch = true;
    cfg.efetch = true;
    const auto stats =
        runReal(exp.baseTrace(), cfg, nullptr, &exp.criticalSet());
    expectGolden(stats,
        {51054, 40025, 26179, 3366, 1092, 0, 160100, 747, 94, 20739,
         267338, 261931, 722649, 68386, 677879, 40025, 0, 0, 0, 0, 0, 0,
         20739, 333, 4, 4, 1231, 162, 270, 270, 769, 737, 272, 19, 758,
         595, 147, 163, 56201, 432, 21, 65, 0.81481481481481477});
}

TEST(PipelineGolden, DoubleFrontend)
{
    auto exp = goldenApp("Music");
    CpuConfig cfg;
    cfg.doubleFrontend();
    const auto stats = runReal(exp.baseTrace(), cfg);
    expectGolden(stats,
        {43937, 40011, 16798, 4617, 11304, 0, 160044, 641, 57, 11345,
         1246412.0000085831, 1062448, 999100, 106317, 2240621, 40011, 0,
         0, 0, 0, 0, 0, 11345, 208, 0, 0, 1487, 632, 0, 0, 840, 834, 0,
         0, 834, 385, 433, 449, 79059, 632, 0, 599, 0});
}

TEST(PipelineGolden, UnpipelinedDivides)
{
    // Integer and FP divides hold their unit until completion, mixed
    // with dependent ALU work and cold loads.
    program::Trace trace;
    Rng rng(11);
    for (int i = 0; i < 6000; ++i) {
        const auto pc = static_cast<std::uint32_t>(i % 96);
        auto d = dyn(pc, 0x10000 + 4 * pc, OpClass::IntAlu);
        switch (rng.below(6)) {
          case 0: d.op = OpClass::IntDiv; break;
          case 1: d.op = OpClass::FloatDiv; break;
          case 2:
            d.op = OpClass::Load;
            d.memAddr = 0x50000000u +
                64u * static_cast<std::uint32_t>(rng.below(4096));
            break;
          default: break;
        }
        if (i > 0 && rng.chance(0.5))
            d.dep0 = i - 1 - static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(std::min(i, 8))));
        trace.insts.push_back(d);
    }
    expectGolden(run(trace),
        {17284, 6000, 616, 0, 13051, 0, 24000, 0, 0, 3164, 514364,
         387926, 558594, 172975, 1338464, 6000, 0, 0, 0, 0, 0, 0, 3164,
         6, 0, 0, 995, 901, 0, 0, 907, 893, 0, 0, 893, 215, 662, 678,
         129439, 901, 0, 0, 0});
}

TEST(PipelineGolden, IntervalRowsAndTraceSpans)
{
    auto exp = goldenApp("Acrobat");
    stats::IntervalSeries series;
    stats::TraceEventWriter sink;
    CpuConfig cfg;
    cfg.warmupCommits = 5000;
    cfg.statsInterval = 2500;
    cfg.intervals = &series;
    cfg.traceSink = &sink;
    cfg.traceMaxInsts = 3000;
    const auto stats = runReal(exp.baseTrace(), cfg);
    expectGolden(stats,
        {29029, 35021, 8644, 1463, 846, 0, 140028, 710, 43, 18109,
         189835, 212584, 595190, 50334, 440230, 35021, 0, 0, 0, 0, 0, 0,
         18109, 106, 0, 0, 777, 209, 0, 0, 315, 315, 0, 0, 315, 273, 34,
         42, 20787, 218, 0, 28, 0});
    EXPECT_EQ(series.size(), 17u);
    EXPECT_EQ(hashRows(series), 16812057162972326120ull);
    EXPECT_EQ(sink.size(), 12837u);
}
