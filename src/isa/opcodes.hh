/**
 * @file
 * The vrsim micro-op ISA: a small RISC-like register machine rich
 * enough to express the paper's workloads (indirect chains, hashes,
 * data-dependent loop bounds and branches) while staying analyzable by
 * the runahead hardware structures (stride detector, taint tracker,
 * loop-bound detector).
 */

#ifndef VRSIM_ISA_OPCODES_HH
#define VRSIM_ISA_OPCODES_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/hash.hh"  // hashMix64, the function Op::Hash computes
#include "sim/logging.hh"

namespace vrsim
{

/** Number of architectural integer registers. */
constexpr unsigned NUM_ARCH_REGS = 32;

/** Register id meaning "no register". */
constexpr uint8_t REG_NONE = 0xFF;

/** Micro-operation opcodes. */
enum class Op : uint8_t
{
    Nop,
    Halt,

    // Moves / immediates.
    Movi,    //!< rd = imm
    Mov,     //!< rd = rs1

    // Integer ALU, register-register.
    Add,     //!< rd = rs1 + rs2
    Sub,     //!< rd = rs1 - rs2
    Mul,     //!< rd = rs1 * rs2
    Divu,    //!< rd = rs1 / rs2 (unsigned; x/0 = ~0)
    And,
    Or,
    Xor,
    Shl,
    Shr,

    // Integer ALU, register-immediate.
    Addi,    //!< rd = rs1 + imm
    Muli,
    Andi,
    Shli,
    Shri,

    // One-op hash (models the paper's hash() address calculation;
    // executes in the integer-multiply pipe).
    Hash,    //!< rd = mix64(rs1 ^ imm)

    // Comparisons producing 0/1 in rd. These are what the Loop-Bound
    // Detector's Last-Compare Register latches.
    CmpLt,   //!< rd = (int64)rs1 <  (int64)rs2
    CmpLtu,  //!< rd = rs1 < rs2 (unsigned)
    CmpEq,
    CmpNe,
    CmpLti,  //!< rd = (int64)rs1 < imm
    CmpEqi,

    // Control flow. Branch targets are instruction indices (imm).
    Br,      //!< if rs1 != 0 goto imm
    Brz,     //!< if rs1 == 0 goto imm
    Jmp,     //!< goto imm

    // Memory. Effective address = rs1 + rs2*scale + imm (rs2 optional).
    Ld,      //!< rd = mem64[ea]
    Ld32,    //!< rd = zext(mem32[ea])
    St,      //!< mem64[ea] = rs3
    St32,    //!< mem32[ea] = low32(rs3)
    Pref,    //!< software prefetch of the line at ea (non-binding)

    // Floating point on bit-cast doubles (for pr / NAS-CG).
    FAdd,
    FMul,
    FDiv,

    NumOps,
};

/** Functional-unit class an op executes on (Table 1 latencies). */
enum class FuClass : uint8_t
{
    IntAdd,   //!< simple ALU, moves, compares, shifts, logic
    IntMul,
    IntDiv,
    FpAdd,
    FpMul,
    FpDiv,
    Load,
    Store,
    Branch,   //!< executes on the IntAdd ports
    None,     //!< nop / halt
};

/** Static per-opcode properties. */
struct OpTraits
{
    bool is_load = false;
    bool is_store = false;
    bool is_prefetch = false;  //!< non-binding software prefetch
    bool is_branch = false;  //!< conditional or unconditional transfer
    bool is_cond_branch = false;
    bool is_compare = false;
    bool writes_dst = false;
    bool has_imm = false;
    FuClass fu = FuClass::None;
};

namespace detail
{
/** The traits table, indexed by opcode. Defined in opcodes.cc. */
extern const std::array<OpTraits, size_t(Op::NumOps)> OP_TRAITS;
} // namespace detail

/**
 * Look up the static traits of an opcode. Inline: this runs several
 * times per simulated instruction on the hot dispatch path
 * (docs/performance.md).
 */
inline const OpTraits &
opTraits(Op op)
{
    if (size_t(op) >= size_t(Op::NumOps)) [[unlikely]]
        panic("bad opcode");
    return detail::OP_TRAITS[size_t(op)];
}

/** Mnemonic for disassembly. */
std::string opName(Op op);

} // namespace vrsim

#endif // VRSIM_ISA_OPCODES_HH
