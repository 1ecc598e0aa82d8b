/**
 * @file
 * Tests for CritIC mining and selection: signature aggregation,
 * thresholding, length handling, convertibility and non-overlap
 * constraints, and the coverage CDF.  The golden trim/aggregation
 * numbers live in test_analyze_reference.cc, which pins the library
 * and the pre-overhaul reference miner to the same values.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "analysis/miner.hh"
#include "helpers.hh"
#include "program/emit.hh"
#include "program/walker.hh"

using namespace critics;
using namespace critics::test;
using analysis::CriticalityConfig;
using analysis::MinedChain;
using analysis::MineResult;
using analysis::SelectOptions;

namespace
{

struct Mined
{
    Program prog;
    program::Trace trace;
    analysis::FanoutInfo fanout;
    analysis::DynChains chains;
    MineResult result;
};

Mined
mineChainLoop(double profileFraction = 1.0)
{
    Mined m;
    m.prog = chainLoopProgram();
    Rng rng(3);
    program::WalkLimits limits;
    limits.targetInsts = 6000;
    const auto path = program::walkProgram(m.prog, rng, limits);
    m.trace = program::emitTrace(m.prog, path);
    CriticalityConfig cfg;
    m.fanout = analysis::computeFanout(m.trace, cfg);
    m.chains = analysis::extractChains(m.trace, m.fanout, cfg);
    m.result = analysis::mineCritIcs(m.trace, m.prog, m.chains,
                                     m.fanout, cfg, profileFraction);
    return m;
}

} // namespace

TEST(Miner, FindsTheDesignedChain)
{
    const auto m = mineChainLoop();
    ASSERT_FALSE(m.result.chains.empty());
    // The top chain by coverage must be (a superset of) 1 -> 2 -> 3.
    const auto &top = m.result.chains.front();
    ASSERT_GE(top.uids.size(), 3u);
    EXPECT_EQ(top.uids[0], 1u);
    EXPECT_EQ(top.uids[1], 2u);
    EXPECT_EQ(top.uids[2], 3u);
    EXPECT_GE(top.avgFanout, 8.0);
    EXPECT_GT(top.dynCount, 100u);
    EXPECT_TRUE(top.directlyConvertible);
    EXPECT_EQ(top.memberFanout.size(), top.uids.size());
    EXPECT_EQ(top.memberConvertible.size(), top.uids.size());
}

TEST(Miner, ChainsSortedByCoverage)
{
    const auto m = mineChainLoop();
    for (std::size_t i = 1; i < m.result.chains.size(); ++i) {
        EXPECT_GE(m.result.chains[i - 1].coverage(),
                  m.result.chains[i].coverage());
    }
}

TEST(Miner, ProfileFractionLimitsCounts)
{
    const auto full = mineChainLoop(1.0);
    const auto half = mineChainLoop(0.5);
    ASSERT_FALSE(full.result.chains.empty());
    ASSERT_FALSE(half.result.chains.empty());
    EXPECT_LT(half.result.chains.front().dynCount,
              full.result.chains.front().dynCount);
}

TEST(Selection, PicksAndCoversNonOverlapping)
{
    const auto m = mineChainLoop();
    const auto sel = analysis::selectCritIcs(m.result, {});
    ASSERT_FALSE(sel.chains.empty());
    EXPECT_GT(sel.expectedCoverage, 0.0);
    std::unordered_set<program::InstUid> seen;
    for (const auto &chain : sel.chains) {
        for (const auto uid : chain) {
            EXPECT_TRUE(seen.insert(uid).second)
                << "uid " << uid << " selected twice";
        }
    }
}

TEST(Selection, MaxLenTruncatesToBestWindow)
{
    const auto m = mineChainLoop();
    SelectOptions opt;
    opt.maxLen = 2;
    const auto sel = analysis::selectCritIcs(m.result, opt);
    for (const auto &chain : sel.chains)
        EXPECT_LE(chain.size(), 2u);
}

TEST(Selection, ExactLenFiltersStrictly)
{
    const auto m = mineChainLoop();
    SelectOptions opt;
    opt.exactLen = 3;
    const auto sel = analysis::selectCritIcs(m.result, opt);
    for (const auto &chain : sel.chains)
        EXPECT_EQ(chain.size(), 3u);
}

TEST(Selection, ConvertibilityFilter)
{
    auto m = mineChainLoop();
    // Poison every mined chain's convertibility — the whole-chain bit
    // and the per-member bits the windowed test consults.
    for (auto &chain : m.result.chains) {
        chain.directlyConvertible = false;
        std::fill(chain.memberConvertible.begin(),
                  chain.memberConvertible.end(),
                  static_cast<std::uint8_t>(0));
    }
    SelectOptions strict;
    strict.requireConvertible = true;
    EXPECT_TRUE(analysis::selectCritIcs(m.result, strict).chains.empty());
    SelectOptions ideal;
    ideal.ideal = true;
    EXPECT_FALSE(analysis::selectCritIcs(m.result, ideal).chains.empty());
}

TEST(Selection, ConvertibilityTestsTheSelectedWindow)
{
    // A chain whose ends are not Thumb-convertible but whose best
    // maxLen=2 window is: the window must pass the filter (the old code
    // tested the whole chain and skipped it).
    MineResult mined;
    mined.dynInsts = 100;
    MinedChain chain;
    chain.uids = {1, 2, 3, 4};
    chain.dynCount = 10;
    chain.avgFanout = 5.0;
    chain.memberFanout = {1.0, 9.0, 9.0, 1.0};
    chain.memberConvertible = {0, 1, 1, 0};
    chain.directlyConvertible = false;
    mined.chains.push_back(chain);

    SelectOptions two;
    two.maxLen = 2;
    const auto sel = analysis::selectCritIcs(mined, two);
    ASSERT_EQ(sel.chains.size(), 1u);
    const std::vector<program::InstUid> window = {2, 3};
    EXPECT_EQ(sel.chains.front(), window);
    EXPECT_DOUBLE_EQ(sel.expectedCoverage, 0.2);

    // maxLen=3 ties 1+9+9 vs 9+9+1; the first window wins and includes
    // the non-convertible uid 1, so the chain is (correctly) skipped.
    SelectOptions three;
    three.maxLen = 3;
    EXPECT_TRUE(analysis::selectCritIcs(mined, three).chains.empty());
}

TEST(Selection, MaxChainsCap)
{
    const auto m = mineChainLoop();
    SelectOptions opt;
    opt.maxChains = 1;
    EXPECT_LE(analysis::selectCritIcs(m.result, opt).chains.size(), 1u);
}

TEST(CoverageCdf, MonotoneNormalized)
{
    const auto m = mineChainLoop();
    const auto cdf = analysis::coverageCdf(m.result);
    ASSERT_FALSE(cdf.all.empty());
    for (std::size_t i = 1; i < cdf.all.size(); ++i) {
        EXPECT_GE(cdf.all[i].x, cdf.all[i - 1].x);
        EXPECT_GE(cdf.all[i].fraction, cdf.all[i - 1].fraction);
    }
    EXPECT_LE(cdf.all.back().fraction, 1.0 + 1e-9);
    EXPECT_GE(cdf.convertibleChainFraction, 0.0);
    EXPECT_LE(cdf.convertibleChainFraction, 1.0);
}

TEST(CoverageCdf, DecimationKeepsTheTerminalPoint)
{
    // For every series length the decimated curve must end at the true
    // terminal point (rank = #chains, fraction = total coverage): the
    // old 63 * stride index could truncate to size - 2.
    for (std::size_t n = 65; n <= 400; ++n) {
        MineResult mined;
        mined.dynInsts = 2 * n;
        for (std::size_t i = 0; i < n; ++i) {
            MinedChain chain;
            chain.uids = {static_cast<program::InstUid>(2 * i),
                          static_cast<program::InstUid>(2 * i + 1)};
            chain.dynCount = 1;
            chain.avgFanout = 9.0;
            chain.directlyConvertible = true;
            mined.chains.push_back(std::move(chain));
        }
        const auto cdf = analysis::coverageCdf(mined);
        ASSERT_EQ(cdf.all.size(), 64u) << "n=" << n;
        EXPECT_DOUBLE_EQ(cdf.all.front().x, 1.0) << "n=" << n;
        EXPECT_DOUBLE_EQ(cdf.all.back().x, static_cast<double>(n))
            << "n=" << n;
        EXPECT_NEAR(cdf.all.back().fraction, 1.0, 1e-12) << "n=" << n;
    }
}
