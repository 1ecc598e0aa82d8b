/**
 * @file
 * The pre-overhaul analyzer as a test oracle.  libcritics has one chain
 * extraction and one miner (the flat analyze pipeline, DESIGN.md §10).
 * This file keeps the straightforward algorithms they replaced — a
 * greedy extraction that re-walks a counted consumer CSR per step, and
 * a miner keyed by per-segment uid vectors — and checks the library
 * against them:
 *
 *  - the golden partition and trim tests run on both (`/flat` is the
 *    library, `/legacy` the oracle), so the oracle itself stays pinned;
 *  - a scrambled dependence soup and the chain-loop program compare
 *    chains and mining results element by element;
 *  - every registered app at 100k instructions, mined at the default
 *    and the full profile fraction, compares the production
 *    AppExperiment path against the oracle field by field.
 *
 * The oracle lives in an anonymous namespace with its own sortChains
 * and shares nothing with src/analysis beyond the data types.
 */

#include <algorithm>
#include <gtest/gtest.h>
#include <sstream>
#include <unordered_map>

#include "analysis/criticality.hh"
#include "analysis/miner.hh"
#include "helpers.hh"
#include "program/emit.hh"
#include "program/walker.hh"
#include "sim/experiment.hh"
#include "support/rng.hh"
#include "workload/profile.hh"

using namespace critics;
using namespace critics::test;
using analysis::CriticalityConfig;
using analysis::DynChains;
using analysis::FanoutInfo;
using analysis::MinedChain;
using analysis::MineResult;
using program::DynIdx;
using program::InstUid;
using program::NoDep;
using program::Trace;

namespace
{

namespace reference
{

/** Adjacency of direct in-window consumers, flattened. */
struct Consumers
{
    std::vector<std::uint32_t> offsets; ///< n+1
    std::vector<DynIdx> edges;
};

Consumers
buildConsumers(const Trace &trace, unsigned window)
{
    const std::size_t n = trace.size();
    Consumers c;
    std::vector<std::uint32_t> counts(n + 1, 0);
    const auto win = static_cast<DynIdx>(window);

    auto inWindow = [&](DynIdx consumer, DynIdx producer) {
        return producer != NoDep && consumer - producer <= win;
    };

    for (std::size_t i = 0; i < n; ++i) {
        const auto &d = trace.insts[i];
        const auto idx = static_cast<DynIdx>(i);
        if (inWindow(idx, d.dep0))
            ++counts[d.dep0];
        if (inWindow(idx, d.dep1) && d.dep1 != d.dep0)
            ++counts[d.dep1];
    }
    c.offsets.resize(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
        c.offsets[i + 1] = c.offsets[i] + counts[i];
    c.edges.resize(c.offsets[n]);
    std::vector<std::uint32_t> cursor(c.offsets.begin(),
                                      c.offsets.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &d = trace.insts[i];
        const auto idx = static_cast<DynIdx>(i);
        if (inWindow(idx, d.dep0))
            c.edges[cursor[d.dep0]++] = idx;
        if (inWindow(idx, d.dep1) && d.dep1 != d.dep0)
            c.edges[cursor[d.dep1]++] = idx;
    }
    return c;
}

/** Number of in-window producers of instruction i (0, 1 or 2). */
unsigned
producerCount(const Trace &trace, DynIdx i, unsigned window)
{
    const auto &d = trace.insts[i];
    const auto win = static_cast<DynIdx>(window);
    unsigned count = 0;
    if (d.dep0 != NoDep && i - d.dep0 <= win)
        ++count;
    if (d.dep1 != NoDep && d.dep1 != d.dep0 && i - d.dep1 <= win)
        ++count;
    return count;
}

/** The pre-overhaul extraction: re-walks every candidate's consumer
 *  list per greedy step (the lookahead makes that quadratic in the
 *  fanout of hot producers). */
DynChains
extractChains(const Trace &trace, const FanoutInfo &fanout,
              const CriticalityConfig &config)
{
    const std::size_t n = trace.size();
    const Consumers consumers = buildConsumers(trace, config.window);
    std::vector<std::uint8_t> taken(n, 0);

    DynChains result;
    result.members.reserve(n);
    result.offsets.reserve(n + 1);
    result.offsets.push_back(0);
    for (std::size_t start = 0; start < n; ++start) {
        if (taken[start])
            continue;
        DynIdx cur = static_cast<DynIdx>(start);
        result.members.push_back(cur);
        taken[start] = 1;

        while (true) {
            // Greedy extension with one step of lookahead: among
            // untaken consumers whose *only* in-window producer is
            // `cur` (self-containment), pick the one with the best
            // own-fanout plus downstream-fanout potential — the "look
            // into the future" of Sec. III-A, which prefers a
            // low-fanout link leading to a high-fanout instruction
            // over a dead-end leaf.
            auto lookahead = [&](DynIdx cand) {
                std::uint32_t best = 0;
                for (std::uint32_t e = consumers.offsets[cand];
                     e < consumers.offsets[cand + 1]; ++e) {
                    const DynIdx nxt = consumers.edges[e];
                    if (taken[nxt])
                        continue;
                    if (producerCount(trace, nxt, config.window) != 1)
                        continue;
                    best = std::max(best, 1u + fanout.fanout[nxt]);
                }
                return best;
            };
            DynIdx best = NoDep;
            double bestScore = 0.0;
            for (std::uint32_t e = consumers.offsets[cur];
                 e < consumers.offsets[cur + 1]; ++e) {
                const DynIdx cand = consumers.edges[e];
                if (taken[cand])
                    continue;
                if (producerCount(trace, cand, config.window) != 1)
                    continue;
                const double score = 1.0 + fanout.fanout[cand] +
                    0.5 * lookahead(cand);
                if (best == NoDep || score > bestScore) {
                    best = cand;
                    bestScore = score;
                }
            }
            if (best == NoDep)
                break;
            result.members.push_back(best);
            taken[best] = 1;
            cur = best;
        }
        result.offsets.push_back(
            static_cast<std::uint32_t>(result.members.size()));
    }
    return result;
}

constexpr std::uint64_t kUidSeqSeed = 0x9E3779B97F4A7C15ULL;

struct UidSeqHash
{
    std::size_t
    operator()(const std::vector<InstUid> &seq) const
    {
        std::uint64_t h = kUidSeqSeed;
        for (const InstUid uid : seq)
            h = hashCombine(h, uid);
        return static_cast<std::size_t>(h);
    }
};

struct Agg
{
    std::uint64_t dynCount = 0;
    std::uint64_t fanoutSum = 0;
    std::vector<std::uint64_t> memberFanout;
};

/** Descending coverage, uid-lexicographic tie-break. */
void
sortChains(std::vector<MinedChain> &chains)
{
    std::sort(chains.begin(), chains.end(),
              [](const MinedChain &a, const MinedChain &b) {
                  if (a.coverage() != b.coverage())
                      return a.coverage() > b.coverage();
                  return a.uids < b.uids;
              });
}

/** The pre-overhaul miner: per-segment key vectors into an
 *  unordered_map, per-step avg() recomputation in the trim loop, and a
 *  Program::locate hash probe per dynamic instruction. */
MineResult
mineCritIcs(const Trace &trace, const program::Program &prog,
            const DynChains &chains, const FanoutInfo &fanout,
            const CriticalityConfig &config, double profileFraction)
{
    MineResult result;
    result.dynInsts = trace.size();
    const auto cutoff = static_cast<DynIdx>(
        static_cast<double>(trace.size()) *
        std::clamp(profileFraction, 0.0, 1.0));

    std::unordered_map<std::vector<InstUid>, Agg, UidSeqHash> table;

    std::vector<InstUid> segment;
    std::vector<DynIdx> segmentDyn;
    for (const DynChains::ChainRef chain : chains) {
        if (chain.empty() || chain.front() >= cutoff)
            continue;

        // Cut the dynamic chain into same-block segments with strictly
        // increasing intra-block position and no repeated uids (a
        // loop-carried chain revisits the same statics every iteration;
        // each visit is its own segment).
        segment.clear();
        segmentDyn.clear();
        std::uint32_t curFunc = ~0u, curBlock = ~0u;
        std::uint32_t lastIndex = 0;

        auto flush = [&]() {
            // Any sub-path of an IC is an IC: trim low-fanout ends so
            // the qualifying critical core is what gets aggregated
            // (greedy chain extension appends low-fanout tails).
            std::size_t lo = 0, hi = segment.size();
            auto avg = [&]() {
                std::uint64_t sum = 0;
                for (std::size_t k = lo; k < hi; ++k)
                    sum += fanout.fanout[segmentDyn[k]];
                return static_cast<double>(sum) /
                       static_cast<double>(hi - lo);
            };
            while (hi - lo > 2 && avg() < config.chainCritThreshold) {
                if (fanout.fanout[segmentDyn[lo]] <=
                    fanout.fanout[segmentDyn[hi - 1]]) {
                    ++lo;
                } else {
                    --hi;
                }
            }
            if (hi - lo >= 2) {
                ++result.segmentsSeen;
                const std::vector<InstUid> key(
                    segment.begin() + static_cast<std::ptrdiff_t>(lo),
                    segment.begin() + static_cast<std::ptrdiff_t>(hi));
                Agg &agg = table[key];
                ++agg.dynCount;
                agg.memberFanout.resize(key.size(), 0);
                for (std::size_t k = lo; k < hi; ++k) {
                    agg.fanoutSum += fanout.fanout[segmentDyn[k]];
                    agg.memberFanout[k - lo] +=
                        fanout.fanout[segmentDyn[k]];
                }
            }
            segment.clear();
            segmentDyn.clear();
        };

        for (const DynIdx dyn : chain) {
            const InstUid uid = trace.insts[dyn].staticUid;
            const program::InstLoc &loc = prog.locate(uid);
            const bool sameBlock =
                loc.func == curFunc && loc.block == curBlock &&
                loc.index > lastIndex;
            if (!sameBlock)
                flush();
            segment.push_back(uid);
            segmentDyn.push_back(dyn);
            curFunc = loc.func;
            curBlock = loc.block;
            lastIndex = loc.index;
        }
        flush();
    }

    for (auto &[uids, agg] : table) {
        const double avgFanout =
            static_cast<double>(agg.fanoutSum) /
            static_cast<double>(agg.dynCount * uids.size());
        if (avgFanout < config.chainCritThreshold)
            continue;
        MinedChain chain;
        chain.uids = uids;
        chain.dynCount = agg.dynCount;
        chain.avgFanout = avgFanout;
        chain.memberFanout.reserve(uids.size());
        for (const std::uint64_t sum : agg.memberFanout) {
            chain.memberFanout.push_back(
                static_cast<double>(sum) /
                static_cast<double>(agg.dynCount));
        }
        chain.memberConvertible.reserve(uids.size());
        bool allConvertible = true;
        for (const InstUid uid : uids) {
            const bool conv =
                isa::thumbDirectlyConvertible(prog.instByUid(uid).arch);
            chain.memberConvertible.push_back(conv ? 1 : 0);
            allConvertible = allConvertible && conv;
        }
        chain.directlyConvertible = allConvertible;
        result.chains.push_back(std::move(chain));
    }
    sortChains(result.chains);
    return result;
}

} // namespace reference

/** A deterministic pseudo-random dependence trace for path-parity
 *  checks (no Rng dependence; a plain LCG is plenty). */
Trace
scrambledTrace(std::size_t n)
{
    Trace t;
    std::uint64_t state = 0x2545F4914F6CDD1DULL;
    auto next = [&]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint32_t>(state >> 33);
    };
    for (std::size_t i = 0; i < n; ++i) {
        DynIdx dep0 = NoDep;
        DynIdx dep1 = NoDep;
        if (i > 0 && next() % 4 != 0)
            dep0 = static_cast<DynIdx>(next() % i);
        if (i > 0 && next() % 3 == 0)
            dep1 = static_cast<DynIdx>(next() % i);
        t.insts.push_back(dyn(static_cast<std::uint32_t>(i % 97),
                              0x10000 + 4 * static_cast<std::uint32_t>(i),
                              OpClass::IntAlu, dep0, dep1));
    }
    return t;
}

/** The chain-loop program walked and analyzed up to extraction. */
struct LoopInput
{
    Program prog;
    Trace trace;
    FanoutInfo fanout;
    CriticalityConfig cfg;
};

LoopInput
chainLoopInput()
{
    LoopInput in;
    in.prog = chainLoopProgram();
    Rng rng(3);
    program::WalkLimits limits;
    limits.targetInsts = 6000;
    const auto path = program::walkProgram(in.prog, rng, limits);
    in.trace = program::emitTrace(in.prog, path);
    in.fanout = analysis::computeFanout(in.trace, in.cfg);
    return in;
}

/**
 * A hand-built mining input with fully known trim behavior:
 *
 *  - two executions of a 5-member dyn chain over uids 0..4 whose fanout
 *    pattern [0, 9, 9, 9, 0] forces the trim loop to shave both ends
 *    (avg 5.4 < 8, then 6.75 < 8, then 9 >= 8) down to uids [1,2,3];
 *  - one 2-member chain (uids 0 and 4, fanouts 3 and 3) that survives
 *    the >= 2 length floor, is aggregated, and is then dropped by the
 *    avg-fanout threshold.
 */
struct GoldenInput
{
    Program prog;
    Trace trace;
    FanoutInfo fanout;
    DynChains chains;
    CriticalityConfig cfg;
};

GoldenInput
goldenInput()
{
    GoldenInput g;
    BasicBlock bb;
    for (std::uint32_t k = 0; k < 5; ++k)
        bb.insts.push_back(
            inst(k, OpClass::IntAlu, static_cast<std::uint8_t>(k)));
    g.prog = makeProgram({bb});

    const std::uint16_t fanouts[] = {0, 9, 9, 9, 0};
    for (int rep = 0; rep < 2; ++rep) {
        for (std::uint32_t k = 0; k < 5; ++k) {
            g.trace.insts.push_back(
                dyn(k, 0x10000 + 4 * k, OpClass::IntAlu));
            g.fanout.fanout.push_back(fanouts[k]);
        }
    }
    g.trace.insts.push_back(dyn(0, 0x10000, OpClass::IntAlu));
    g.fanout.fanout.push_back(3);
    g.trace.insts.push_back(dyn(4, 0x10010, OpClass::IntAlu));
    g.fanout.fanout.push_back(3);
    g.fanout.critMask.assign(g.trace.size(), 0);

    g.chains.members = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
    g.chains.offsets = {0, 5, 10, 12};
    return g;
}

/** The first difference between two chain partitions, or "" if they
 *  are identical (one line instead of two whole-vector dumps). */
std::string
chainsDiff(const DynChains &lib, const DynChains &ref)
{
    std::ostringstream os;
    if (lib.offsets != ref.offsets) {
        const auto it = std::mismatch(lib.offsets.begin(),
                                      lib.offsets.end(),
                                      ref.offsets.begin(),
                                      ref.offsets.end());
        os << "offsets differ at chain "
           << (it.first - lib.offsets.begin()) << " (sizes "
           << lib.offsets.size() << " vs " << ref.offsets.size() << ")";
    } else if (lib.members != ref.members) {
        const auto it = std::mismatch(lib.members.begin(),
                                      lib.members.end(),
                                      ref.members.begin());
        os << "members differ at " << (it.first - lib.members.begin());
    }
    return os.str();
}

/** The first field in which two mining results differ, or "".  Doubles
 *  compare exactly: the library must reproduce the oracle bit for
 *  bit. */
std::string
minedDiff(const MineResult &lib, const MineResult &ref)
{
    std::ostringstream os;
    if (lib.dynInsts != ref.dynInsts)
        os << "dynInsts " << lib.dynInsts << " vs " << ref.dynInsts;
    else if (lib.segmentsSeen != ref.segmentsSeen)
        os << "segmentsSeen " << lib.segmentsSeen << " vs "
           << ref.segmentsSeen;
    else if (lib.chains.size() != ref.chains.size())
        os << "chain count " << lib.chains.size() << " vs "
           << ref.chains.size();
    if (!os.str().empty())
        return os.str();
    for (std::size_t i = 0; i < lib.chains.size(); ++i) {
        const MinedChain &a = lib.chains[i];
        const MinedChain &b = ref.chains[i];
        const char *field = a.uids != b.uids ? "uids"
            : a.dynCount != b.dynCount ? "dynCount"
            : a.avgFanout != b.avgFanout ? "avgFanout"
            : a.memberFanout != b.memberFanout ? "memberFanout"
            : a.memberConvertible != b.memberConvertible
                ? "memberConvertible"
            : a.directlyConvertible != b.directlyConvertible
                ? "directlyConvertible"
            : nullptr;
        if (field != nullptr) {
            os << "chain " << i << ": " << field;
            return os.str();
        }
    }
    return "";
}

} // namespace

/** The golden extraction tests on both implementations: GetParam() ==
 *  true runs the library, false the reference oracle. */
class AnalyzePath : public ::testing::TestWithParam<bool>
{
  protected:
    DynChains
    extract(const Trace &trace, const FanoutInfo &fanout,
            const CriticalityConfig &config) const
    {
        return GetParam()
            ? analysis::extractChains(trace, fanout, config)
            : reference::extractChains(trace, fanout, config);
    }
};

INSTANTIATE_TEST_SUITE_P(Paths, AnalyzePath, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "flat" : "legacy";
                         });

/** The golden mining tests on both implementations, as above. */
class MinerPath : public ::testing::TestWithParam<bool>
{
  protected:
    MineResult
    mine(const Trace &trace, const Program &prog, const DynChains &chains,
         const FanoutInfo &fanout, const CriticalityConfig &config) const
    {
        return GetParam()
            ? analysis::mineCritIcs(trace, prog, chains, fanout, config)
            : reference::mineCritIcs(trace, prog, chains, fanout, config,
                                     1.0);
    }
};

INSTANTIATE_TEST_SUITE_P(Paths, MinerPath, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "flat" : "legacy";
                         });

TEST_P(AnalyzePath, ExtractsTheCriticalChain)
{
    const auto trace = fig2Trace();
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(trace, cfg);
    const auto chains = extract(trace, info, cfg);

    // Every instruction appears in exactly one chain.
    std::vector<int> seen(trace.size(), 0);
    for (const DynChains::ChainRef chain : chains)
        for (const auto idx : chain)
            ++seen[idx];
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "dyn " << i;

    // The chain from I0 must run through I10 (the best future critical)
    // and continue via I20 to I22.
    ASSERT_GT(chains.size(), 0u);
    DynChains::ChainRef chain0 = chains[0];
    for (const DynChains::ChainRef chain : chains)
        if (chain.front() == 0)
            chain0 = chain;
    ASSERT_GE(chain0.size(), 4u);
    EXPECT_EQ(chain0[0], 0);
    EXPECT_EQ(chain0[1], 10);
    EXPECT_EQ(chain0[2], 20);
    EXPECT_EQ(chain0[3], 22);
}

TEST_P(AnalyzePath, GoldenFig2Partition)
{
    // The full pinned partition of the Fig. 2 trace: one five-member
    // chain (I0 -> I10 -> I20 -> I22 -> I23, the greedy head eats the
    // first of I22's tied consumers) and 27 singletons in start order.
    const auto trace = fig2Trace();
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(trace, cfg);
    const auto chains = extract(trace, info, cfg);

    ASSERT_EQ(chains.size(), 28u);
    const std::vector<DynIdx> lead = {0, 10, 20, 22, 23};
    ASSERT_EQ(chains[0].size(), lead.size());
    for (std::size_t k = 0; k < lead.size(); ++k)
        EXPECT_EQ(chains[0][k], lead[k]) << "member " << k;

    const std::vector<DynIdx> singles = {
        1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18,
        19, 21, 24, 25, 26, 27, 28, 29, 30, 31};
    ASSERT_EQ(chains.size(), singles.size() + 1);
    for (std::size_t c = 0; c < singles.size(); ++c) {
        ASSERT_EQ(chains[c + 1].size(), 1u) << "chain " << c + 1;
        EXPECT_EQ(chains[c + 1][0], singles[c]);
    }
}

TEST_P(AnalyzePath, MembersAreSelfContained)
{
    const auto trace = fig2Trace();
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(trace, cfg);
    const auto chains = extract(trace, info, cfg);
    // I21 has two in-window producers and must never be a chain
    // extension (only a head).
    for (const DynChains::ChainRef chain : chains) {
        for (std::size_t k = 1; k < chain.size(); ++k)
            EXPECT_NE(chain[k], 21);
    }
}

TEST_P(AnalyzePath, GapHistogram)
{
    const auto trace = fig2Trace();
    CriticalityConfig cfg;
    const auto info = analysis::computeFanout(trace, cfg);
    const auto chains = extract(trace, info, cfg);
    const auto stats =
        analysis::chainStatistics(trace, chains, info, cfg);

    // The I0 -> I10 -> I20 -> I22 chain has gaps 0 (I0 to I10) and 1
    // (I10 -(I20)-> I22).
    EXPECT_GT(stats.critGap.at(0), 0.0);
    EXPECT_GT(stats.critGap.at(1), 0.0);
    EXPECT_GT(stats.multiMemberChains, 0u);
    EXPECT_GT(stats.icLength.maxBucket(), 2);
    EXPECT_GE(stats.noDependentCritFrac, 0.0);
    EXPECT_LE(stats.noDependentCritFrac, 1.0);
}

TEST_P(MinerPath, GoldenTrimAndAggregation)
{
    const auto g = goldenInput();
    const auto result = mine(g.trace, g.prog, g.chains, g.fanout, g.cfg);

    EXPECT_EQ(result.dynInsts, 12u);
    // Three segments survive the length floor: two trimmed copies of
    // uids [1,2,3] and the low-fanout pair [0,4].
    EXPECT_EQ(result.segmentsSeen, 3u);
    // The pair's avg fanout 3 < 8 drops it; one unique chain remains.
    ASSERT_EQ(result.chains.size(), 1u);
    const MinedChain &chain = result.chains.front();
    const std::vector<InstUid> uids = {1, 2, 3};
    EXPECT_EQ(chain.uids, uids);
    EXPECT_EQ(chain.dynCount, 2u);
    EXPECT_DOUBLE_EQ(chain.avgFanout, 9.0);
    const std::vector<double> member = {9.0, 9.0, 9.0};
    EXPECT_EQ(chain.memberFanout, member);
    const std::vector<std::uint8_t> conv = {1, 1, 1};
    EXPECT_EQ(chain.memberConvertible, conv);
    EXPECT_TRUE(chain.directlyConvertible);
    EXPECT_EQ(chain.coverage(), 6u);
}

TEST_P(MinerPath, SharedLocTableMatchesPrivate)
{
    // Passing the AppExperiment-shared LocTable to the library must
    // not change anything vs a miner that never sees it (the library
    // building its own, or the oracle resolving Program::locate).
    const auto in = chainLoopInput();
    const auto chains =
        analysis::extractChains(in.trace, in.fanout, in.cfg);
    const auto own = mine(in.trace, in.prog, chains, in.fanout, in.cfg);
    const analysis::LocTable locs(in.prog);
    const auto shared = analysis::mineCritIcs(
        in.trace, in.prog, chains, in.fanout, in.cfg, 1.0, &locs);
    ASSERT_FALSE(own.chains.empty());
    EXPECT_EQ(minedDiff(shared, own), "");
}

TEST(Chains, FlatMatchesLegacyOnScrambledTrace)
{
    // Parity on a dependence soup: members and offsets must be
    // identical, including every greedy tie-break and lookahead.
    for (const std::size_t n : {64u, 1000u, 5000u}) {
        const auto trace = scrambledTrace(n);
        CriticalityConfig cfg;
        cfg.window = 64;
        const auto info = analysis::computeFanout(trace, cfg);
        const auto lib = analysis::extractChains(trace, info, cfg);
        const auto ref = reference::extractChains(trace, info, cfg);
        EXPECT_EQ(lib.members, ref.members) << "n=" << n;
        EXPECT_EQ(lib.offsets, ref.offsets) << "n=" << n;
    }
}

TEST(Miner, FlatMatchesLegacy)
{
    // Each side runs its own extraction and its own miner.
    const auto in = chainLoopInput();
    const auto libChains =
        analysis::extractChains(in.trace, in.fanout, in.cfg);
    const auto refChains =
        reference::extractChains(in.trace, in.fanout, in.cfg);
    EXPECT_EQ(chainsDiff(libChains, refChains), "");
    const auto lib = analysis::mineCritIcs(in.trace, in.prog, libChains,
                                           in.fanout, in.cfg);
    const auto ref = reference::mineCritIcs(
        in.trace, in.prog, refChains, in.fanout, in.cfg, 1.0);
    ASSERT_FALSE(ref.chains.empty());
    EXPECT_EQ(minedDiff(lib, ref), "");
}

TEST(AnalyzeReference, EveryAppMatchesTheOracle)
{
    // The production path exactly as a job drives it (AppExperiment's
    // memoized chains and minedAt with its shared LocTable) against
    // the oracle, for every app at the default and the full profile
    // fraction.
    sim::ExperimentOptions options;
    options.traceInsts = 100000;
    std::size_t minedChains = 0;
    for (const auto &profile : workload::allApps()) {
        sim::AppExperiment exp(profile, options);
        const auto refChains = reference::extractChains(
            exp.baseTrace(), exp.fanout(), options.crit);
        EXPECT_EQ(chainsDiff(exp.chains(), refChains), "")
            << profile.name;
        for (const double fraction : {options.profileFraction, 1.0}) {
            const auto ref = reference::mineCritIcs(
                exp.baseTrace(), exp.baseProgram(), refChains,
                exp.fanout(), options.crit, fraction);
            EXPECT_EQ(minedDiff(exp.minedAt(fraction), ref), "")
                << profile.name << " at fraction " << fraction;
            minedChains += ref.chains.size();
        }
    }
    // The comparison is only as strong as what was mined.
    EXPECT_GT(minedChains, 1000u);
}
