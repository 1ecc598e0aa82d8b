/**
 * @file
 * Dynamic execution traces.
 *
 * The key reproducibility trick of this codebase: a ControlPath (which
 * blocks executed, each conditional branch's outcome, each indirect call's
 * target) is generated *once* from the baseline program and depends only on
 * control-flow structure — never on block contents.  The same path can then
 * be re-emitted against a compiler-transformed program, so the baseline and
 * optimized simulations execute the *same work* and differ only in code
 * layout, formats and intra-block ordering, exactly like re-running the
 * same app input on a rewritten binary.
 */

#ifndef CRITICS_PROGRAM_TRACE_HH
#define CRITICS_PROGRAM_TRACE_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "isa/isa.hh"
#include "program/program.hh"

namespace critics::program
{

/** Index into Trace::insts; signed so -1 can mean "no producer". */
using DynIdx = std::int32_t;
constexpr DynIdx NoDep = -1;
/** The most instructions a trace can hold: every position is a DynIdx. */
constexpr std::uint64_t kMaxTraceInsts = std::numeric_limits<DynIdx>::max();

/**
 * One executed instruction, packed to 28 bytes so the simulator's
 * sequential sweep touches at most two cache lines per record.  The
 * two booleans of the old layout live in a single flags byte; the
 * flag bits are precomputed at emit time (DESIGN.md §7).
 */
struct DynInst
{
    static constexpr std::uint8_t kTaken = 1u << 0; ///< transfer taken
    static constexpr std::uint8_t kCond = 1u << 1;  ///< conditional br

    InstUid staticUid = NoUid;
    std::uint32_t address = 0;      ///< PC
    std::uint32_t memAddr = 0;      ///< loads/stores
    std::uint32_t branchTarget = 0; ///< control: target PC
    DynIdx dep0 = NoDep;            ///< producer of src1
    DynIdx dep1 = NoDep;            ///< producer of src2
    isa::OpClass op = isa::OpClass::IntAlu;
    std::uint8_t sizeBytes = 4;
    std::uint8_t cdpRun = 0;        ///< CDP: following 16-bit run length
    std::uint8_t flags = 0;         ///< kTaken | kCond

    bool taken() const { return (flags & kTaken) != 0; }
    bool isCond() const { return (flags & kCond) != 0; }
    void
    setTaken(bool v)
    {
        flags = v ? (flags | kTaken)
                  : static_cast<std::uint8_t>(flags & ~kTaken);
    }
    void
    setCond(bool v)
    {
        flags = v ? (flags | kCond)
                  : static_cast<std::uint8_t>(flags & ~kCond);
    }

    bool isLoad() const { return op == isa::OpClass::Load; }
    bool isStore() const { return op == isa::OpClass::Store; }
    bool isControl() const { return isa::isControl(op); }
};

static_assert(sizeof(DynInst) == 28,
              "DynInst must stay a packed 28-byte record; widening it "
              "slows the simulator's sequential trace sweep");

/**
 * A dynamic instruction stream.  `dynCount`/`thumbDynCount` are filled
 * by emitTrace so consumers (the dynamic-thumb-fraction statistic)
 * never rescan the stream; hand-built traces that skip emitTrace and
 * never read dynThumbFraction() may leave them zero.
 */
struct Trace
{
    std::vector<DynInst> insts;
    std::uint64_t dynCount = 0;      ///< executed insts excluding CDPs
    std::uint64_t thumbDynCount = 0; ///< 16-bit ones among dynCount

    std::size_t size() const { return insts.size(); }
    const DynInst &operator[](std::size_t i) const { return insts[i]; }

    /** Fraction of executed (non-CDP) instructions in the 16-bit
     *  format — Fig. 13b, excluding switch overhead. */
    double
    dynThumbFraction() const
    {
        return dynCount ? static_cast<double>(thumbDynCount) /
                          static_cast<double>(dynCount)
                        : 0.0;
    }
};

/** Packed (function, block) visit. */
struct BlockVisit
{
    std::uint32_t func;
    std::uint32_t block;
};

/**
 * The content-independent record of one execution: block visit sequence,
 * conditional-branch outcomes (in visit order) and indirect-call targets
 * (in visit order).
 */
struct ControlPath
{
    std::vector<BlockVisit> visits;
    std::vector<std::uint8_t> branchOutcomes;
    std::vector<std::uint32_t> indirectTargets;
};

} // namespace critics::program

#endif // CRITICS_PROGRAM_TRACE_HH
