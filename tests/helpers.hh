/**
 * @file
 * Shared construction helpers for the test suite: tiny hand-built
 * programs, blocks and traces with known dataflow.
 */

#ifndef CRITICS_TESTS_HELPERS_HH
#define CRITICS_TESTS_HELPERS_HH

#include "program/program.hh"
#include "program/trace.hh"

namespace critics::test
{

using program::BasicBlock;
using program::Program;
using program::StaticInst;
using isa::NoReg;
using isa::OpClass;

/** Build a StaticInst with explicit uid and operands. */
inline StaticInst
inst(program::InstUid uid, OpClass op, std::uint8_t dst,
     std::uint8_t src1 = NoReg, std::uint8_t src2 = NoReg)
{
    StaticInst si;
    si.uid = uid;
    si.arch.op = op;
    si.arch.dst = dst;
    si.arch.src1 = src1;
    si.arch.src2 = src2;
    if (op == OpClass::Load || op == OpClass::Store) {
        si.memPattern = program::MemPattern::HotRegion;
        si.memRegionId = 0;
        si.aliasClass = static_cast<std::uint8_t>(uid % 16);
    }
    return si;
}

/** Wrap blocks into a one-function program with a default hot region. */
inline Program
makeProgram(std::vector<BasicBlock> blocks)
{
    Program prog;
    prog.memRegions = {
        {0x40000000u, 64u << 10, 0},
        {0x50000000u, 1u << 20, 0},
        {0x60000000u, 1u << 20, 64},
    };
    program::Function fn;
    fn.name = "test_fn";
    fn.blocks = std::move(blocks);
    prog.funcs.push_back(std::move(fn));
    prog.layout();
    return prog;
}

/** Build a DynInst for hand-made traces. */
inline program::DynInst
dyn(std::uint32_t uid, std::uint32_t address, OpClass op,
    program::DynIdx dep0 = program::NoDep,
    program::DynIdx dep1 = program::NoDep, std::uint8_t sizeBytes = 4)
{
    program::DynInst d;
    d.staticUid = uid;
    d.address = address;
    d.op = op;
    d.dep0 = dep0;
    d.dep1 = dep1;
    d.sizeBytes = sizeBytes;
    return d;
}

/** A trace of `n` independent single-cycle ALU ops in a small loop of
 *  code (always i-cache resident after the first lines). */
inline program::Trace
independentAluTrace(std::size_t n, std::size_t loopInsts = 256)
{
    program::Trace trace;
    for (std::size_t i = 0; i < n; ++i) {
        trace.insts.push_back(dyn(
            static_cast<std::uint32_t>(i % loopInsts),
            static_cast<std::uint32_t>(0x10000 + 4 * (i % loopInsts)),
            OpClass::IntAlu));
    }
    return trace;
}

/** A fully serial dependence chain (each op depends on its
 *  predecessor). */
inline program::Trace
serialChainTrace(std::size_t n, std::size_t loopInsts = 256)
{
    program::Trace trace = independentAluTrace(n, loopInsts);
    for (std::size_t i = 1; i < n; ++i)
        trace.insts[i].dep0 = static_cast<program::DynIdx>(i - 1);
    return trace;
}

/** Fig. 2-style trace: I0 feeds I1..I10; I10 feeds I11..I20; I20 feeds
 *  I22 (via nothing) — a chain of high-fanout nodes with a low-fanout
 *  link. */
inline program::Trace
fig2Trace()
{
    program::Trace t;
    auto add = [&](program::DynIdx dep0, program::DynIdx dep1) {
        const auto i = static_cast<std::uint32_t>(t.size());
        t.insts.push_back(dyn(i, 0x10000 + 4 * i, OpClass::IntAlu,
                              dep0, dep1));
    };
    add(program::NoDep, program::NoDep);   // I0
    for (int k = 1; k <= 10; ++k)          // I1..I10 read I0
        add(0, program::NoDep);
    for (int k = 11; k <= 20; ++k)         // I11..I20 read I10
        add(10, program::NoDep);
    add(1, 11);                            // I21 reads I1 and I11
    add(20, program::NoDep);               // I22 reads I20
    for (int k = 0; k < 9; ++k)            // I23.. read I22
        add(22, program::NoDep);
    return t;
}

/** A single-block loop program containing one designed chain:
 *  C1 (uid 1) -> link (uid 2) -> C2 (uid 3) with enough consumers for
 *  both chain nodes to be high fanout. */
inline Program
chainLoopProgram()
{
    BasicBlock bb;
    bb.insts.push_back(inst(0, OpClass::IntAlu, 6)); // filler def
    bb.insts.push_back(inst(1, OpClass::IntAlu, 1));         // C1
    bb.insts.push_back(inst(2, OpClass::IntAlu, 2, 1));      // link
    bb.insts.push_back(inst(3, OpClass::IntAlu, 3, 2));      // C2
    std::uint32_t uid = 4;
    for (int c = 0; c < 12; ++c) // consumers of C1 and C2
        bb.insts.push_back(inst(uid++, OpClass::IntAlu,
                                static_cast<std::uint8_t>(8 + c % 3),
                                1, 3));
    StaticInst loop = inst(uid++, OpClass::Branch, isa::NoReg, 8);
    loop.flow = program::FlowKind::CondBranch;
    loop.targetBlock = 0;
    loop.takenBias = 1.0f;
    bb.insts.push_back(loop);
    return makeProgram({bb});
}

} // namespace critics::test

#endif // CRITICS_TESTS_HELPERS_HH
