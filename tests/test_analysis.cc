/**
 * @file
 * Criticality-analysis tests: fanout computation on hand-built DFGs
 * (including the paper's Fig. 2 example) and the PC-indexed criticality
 * table.  IC extraction's golden partitions and chain statistics live
 * in test_analyze_reference.cc, which pins the library and the
 * pre-overhaul reference extraction to the same values.
 */

#include <gtest/gtest.h>

#include "analysis/criticality.hh"
#include "helpers.hh"

using namespace critics;
using namespace critics::test;
using analysis::CriticalityConfig;

TEST(Fanout, CountsDirectConsumers)
{
    const auto trace = fig2Trace();
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(trace, cfg);
    EXPECT_EQ(info.fanout[0], 10);
    EXPECT_EQ(info.fanout[10], 10);
    EXPECT_EQ(info.fanout[1], 1);  // read by I21
    EXPECT_EQ(info.fanout[20], 1); // read by I22
    EXPECT_EQ(info.fanout[22], 9);
    EXPECT_TRUE(info.critMask[0]);
    EXPECT_TRUE(info.critMask[10]);
    EXPECT_FALSE(info.critMask[20]);
    EXPECT_GT(info.critFraction(), 0.0);
}

TEST(Fanout, WindowLimitsCounting)
{
    // Consumer far beyond the window must not count.
    program::Trace t;
    t.insts.push_back(dyn(0, 0x10000, OpClass::IntAlu));
    for (int i = 1; i < 300; ++i)
        t.insts.push_back(dyn(i, 0x10000 + 4 * i, OpClass::IntAlu));
    t.insts.push_back(dyn(300, 0x10000 + 1200, OpClass::IntAlu, 0));
    CriticalityConfig cfg;
    cfg.window = 128;
    const auto info = analysis::computeFanout(t, cfg);
    EXPECT_EQ(info.fanout[0], 0);
    cfg.window = 1024;
    const auto wide = analysis::computeFanout(t, cfg);
    EXPECT_EQ(wide.fanout[0], 1);
}

TEST(Fanout, DupDepCountsOnce)
{
    // dep0 == dep1 is one consumer, not two.
    program::Trace t;
    t.insts.push_back(dyn(0, 0x10000, OpClass::IntAlu));
    t.insts.push_back(dyn(1, 0x10004, OpClass::IntAlu, 0, 0));
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(t, cfg);
    EXPECT_EQ(info.fanout[0], 1);
}

TEST(Fanout, DupDepSaturatesAtCap)
{
    // 0x10001 dup-dep consumers of I0 inside one huge window: the
    // counter must saturate at 0xFFFF and stay there.  (The old
    // increment-both-then-compensate scheme suppressed the increments
    // at the cap but still fired the decrement, leaving 0xFFFE.)
    const std::size_t consumers = 0x10001;
    program::Trace t;
    t.insts.reserve(consumers + 1);
    t.insts.push_back(dyn(0, 0x10000, OpClass::IntAlu));
    for (std::size_t i = 0; i < consumers; ++i) {
        t.insts.push_back(dyn(static_cast<std::uint32_t>(1 + i),
                              0x10004, OpClass::IntAlu, 0, 0));
    }
    CriticalityConfig cfg;
    cfg.window = 1u << 20;
    const auto info = analysis::computeFanout(t, cfg);
    EXPECT_EQ(info.fanout[0], 0xFFFF);
}

TEST(Fanout, SingleDepSaturatesAtCap)
{
    const std::size_t consumers = 0x10001;
    program::Trace t;
    t.insts.reserve(consumers + 1);
    t.insts.push_back(dyn(0, 0x10000, OpClass::IntAlu));
    for (std::size_t i = 0; i < consumers; ++i) {
        t.insts.push_back(dyn(static_cast<std::uint32_t>(1 + i),
                              0x10004, OpClass::IntAlu, 0));
    }
    CriticalityConfig cfg;
    cfg.window = 1u << 20;
    const auto info = analysis::computeFanout(t, cfg);
    EXPECT_EQ(info.fanout[0], 0xFFFF);
}

TEST(CriticalSet, SelectsBiasedStatics)
{
    // uid 1 always critical, uid 2 never.
    program::Trace t;
    for (int rep = 0; rep < 50; ++rep) {
        const auto base = static_cast<program::DynIdx>(t.size());
        t.insts.push_back(dyn(1, 0x10000, OpClass::IntAlu));
        for (int c = 0; c < 9; ++c)
            t.insts.push_back(
                dyn(2, 0x10004 + 4 * c, OpClass::IntAlu, base));
    }
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(t, cfg);
    const auto set = analysis::buildCriticalSet(t, info);
    EXPECT_TRUE(set.count(1));
    EXPECT_FALSE(set.count(2));
}

class FanoutThreshold : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FanoutThreshold, MonotoneCritFraction)
{
    const auto trace = fig2Trace();
    CriticalityConfig lo;
    lo.fanoutThreshold = 2;
    CriticalityConfig hi;
    hi.fanoutThreshold = GetParam();
    const auto fLo = analysis::computeFanout(trace, lo);
    const auto fHi = analysis::computeFanout(trace, hi);
    EXPECT_GE(fLo.critFraction(), fHi.critFraction());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FanoutThreshold,
                         ::testing::Values(4u, 8u, 12u, 16u));
