/**
 * @file
 * Functional interpreter for vrsim programs.
 *
 * The same stepper drives (a) the committed execution of the main
 * thread (producing the dynamic stream for the timing model),
 * (b) speculative execution contexts used by the runahead engines
 * (Discovery Mode, vector lanes), where stores are suppressed, and
 * (c) the timing-free functional fast-forward loop used by SMARTS-
 * style interval sampling (docs/sampling.md). step() is defined
 * inline here so the fast-forward loop compiles to a native
 * dispatch loop with no cross-TU call per instruction, and so the
 * detailed and functional paths execute the literally same code —
 * the StateDigest byte-identity guarantee is by construction.
 */

#ifndef VRSIM_ISA_INTERP_HH
#define VRSIM_ISA_INTERP_HH

#include <array>
#include <cstdint>
#include <cstring>

#include "isa/inst.hh"
#include "isa/memory_image.hh"
#include "sim/digest.hh"

namespace vrsim
{

/** Architectural register + PC state of one hardware context. */
struct CpuState
{
    std::array<uint64_t, NUM_ARCH_REGS> regs{};
    uint32_t pc = 0;
    bool halted = false;

    uint64_t
    reg(uint8_t r) const
    {
        panicIfNot(r < NUM_ARCH_REGS, "register out of range");
        return regs[r];
    }

    void
    setReg(uint8_t r, uint64_t v)
    {
        panicIfNot(r < NUM_ARCH_REGS, "register out of range");
        regs[r] = v;
    }
};

/** Everything the timing model needs to know about one executed µop. */
struct StepInfo
{
    uint32_t pc = 0;          //!< pc of the executed instruction
    uint32_t next_pc = 0;     //!< pc after execution
    const Inst *inst = nullptr;
    bool is_mem = false;
    bool is_store = false;
    uint64_t addr = 0;        //!< effective address of memory ops
    uint8_t size = 0;         //!< access size in bytes
    bool is_branch = false;
    bool taken = false;
    bool halted = false;
    /** Value written to rd (loads: loaded value); for stores, the
     *  value stored (possibly truncated to the access size). Consumed
     *  by the differential StateDigest oracle. */
    uint64_t dst_value = 0;
};

namespace interp_detail
{

inline double
asF64(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
}

inline uint64_t
asBits(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    return bits;
}

} // namespace interp_detail

/**
 * Compute the effective address of a memory instruction given a
 * register-read callback; shared by the interpreter and the vector
 * engines (which read lane registers out of the VRAT instead).
 */
template <typename ReadReg>
uint64_t
effectiveAddress(const Inst &inst, ReadReg &&read)
{
    uint64_t ea = read(inst.rs1) + uint64_t(inst.imm);
    if (inst.rs2 != REG_NONE)
        ea += read(inst.rs2) * inst.scale;
    return ea;
}

/**
 * Execute one instruction.
 *
 * @param prog        the program
 * @param state       context to advance (pc and registers updated)
 * @param mem         functional memory
 * @param speculative when true, stores do not modify memory (runahead
 *                    semantics: transient execution must not be
 *                    architecturally visible)
 */
inline StepInfo
step(const Program &prog, CpuState &state, MemoryImage &mem,
     bool speculative = false)
{
    StepInfo info;
    info.pc = state.pc;
    panicIfNot(!state.halted, "stepping a halted context");
    const Inst &inst = prog.at(state.pc);
    info.inst = &inst;
    uint32_t next_pc = state.pc + 1;

    auto r = [&state](uint8_t reg) { return state.reg(reg); };
    uint64_t dst = 0;
    bool write_dst = inst.writesDst();

    switch (inst.op) {
      case Op::Nop:
        break;
      case Op::Halt:
        info.halted = true;
        state.halted = true;
        break;
      case Op::Movi: dst = uint64_t(inst.imm); break;
      case Op::Mov: dst = r(inst.rs1); break;
      case Op::Add: dst = r(inst.rs1) + r(inst.rs2); break;
      case Op::Sub: dst = r(inst.rs1) - r(inst.rs2); break;
      case Op::Mul: dst = r(inst.rs1) * r(inst.rs2); break;
      case Op::Divu: {
        uint64_t d = r(inst.rs2);
        dst = d ? r(inst.rs1) / d : ~0ull;
        break;
      }
      case Op::And: dst = r(inst.rs1) & r(inst.rs2); break;
      case Op::Or: dst = r(inst.rs1) | r(inst.rs2); break;
      case Op::Xor: dst = r(inst.rs1) ^ r(inst.rs2); break;
      case Op::Shl: dst = r(inst.rs1) << (r(inst.rs2) & 63); break;
      case Op::Shr: dst = r(inst.rs1) >> (r(inst.rs2) & 63); break;
      case Op::Addi: dst = r(inst.rs1) + uint64_t(inst.imm); break;
      case Op::Muli: dst = r(inst.rs1) * uint64_t(inst.imm); break;
      case Op::Andi: dst = r(inst.rs1) & uint64_t(inst.imm); break;
      case Op::Shli: dst = r(inst.rs1) << (inst.imm & 63); break;
      case Op::Shri: dst = r(inst.rs1) >> (inst.imm & 63); break;
      case Op::Hash:
        dst = hashMix64(r(inst.rs1) ^ uint64_t(inst.imm));
        break;
      case Op::CmpLt:
        dst = int64_t(r(inst.rs1)) < int64_t(r(inst.rs2));
        break;
      case Op::CmpLtu: dst = r(inst.rs1) < r(inst.rs2); break;
      case Op::CmpEq: dst = r(inst.rs1) == r(inst.rs2); break;
      case Op::CmpNe: dst = r(inst.rs1) != r(inst.rs2); break;
      case Op::CmpLti: dst = int64_t(r(inst.rs1)) < inst.imm; break;
      case Op::CmpEqi: dst = r(inst.rs1) == uint64_t(inst.imm); break;
      case Op::Br:
        info.is_branch = true;
        info.taken = r(inst.rs1) != 0;
        if (info.taken)
            next_pc = uint32_t(inst.imm);
        break;
      case Op::Brz:
        info.is_branch = true;
        info.taken = r(inst.rs1) == 0;
        if (info.taken)
            next_pc = uint32_t(inst.imm);
        break;
      case Op::Jmp:
        info.is_branch = true;
        info.taken = true;
        next_pc = uint32_t(inst.imm);
        break;
      case Op::Ld: {
        info.is_mem = true;
        info.size = 8;
        info.addr = effectiveAddress(inst, r);
        dst = mem.read64(info.addr);
        break;
      }
      case Op::Ld32: {
        info.is_mem = true;
        info.size = 4;
        info.addr = effectiveAddress(inst, r);
        dst = mem.read32(info.addr);
        break;
      }
      case Op::St: {
        info.is_mem = true;
        info.is_store = true;
        info.size = 8;
        info.addr = effectiveAddress(inst, r);
        info.dst_value = r(inst.rs3);
        if (!speculative)
            mem.write64(info.addr, info.dst_value);
        break;
      }
      case Op::St32: {
        info.is_mem = true;
        info.is_store = true;
        info.size = 4;
        info.addr = effectiveAddress(inst, r);
        info.dst_value = uint32_t(r(inst.rs3));
        if (!speculative)
            mem.write32(info.addr, uint32_t(info.dst_value));
        break;
      }
      case Op::Pref: {
        // Non-binding: computes the address, reads nothing.
        info.is_mem = true;
        info.size = 0;
        info.addr = effectiveAddress(inst, r);
        break;
      }
      case Op::FAdd:
        dst = interp_detail::asBits(interp_detail::asF64(r(inst.rs1)) +
                                    interp_detail::asF64(r(inst.rs2)));
        break;
      case Op::FMul:
        dst = interp_detail::asBits(interp_detail::asF64(r(inst.rs1)) *
                                    interp_detail::asF64(r(inst.rs2)));
        break;
      case Op::FDiv:
        dst = interp_detail::asBits(interp_detail::asF64(r(inst.rs1)) /
                                    interp_detail::asF64(r(inst.rs2)));
        break;
      case Op::NumOps:
        panic("invalid opcode");
    }

    if (write_dst) {
        state.setReg(inst.rd, dst);
        info.dst_value = dst;
    }
    if (!state.halted)
        state.pc = next_pc;
    info.next_pc = next_pc;
    return info;
}

/**
 * Build the differential-oracle commit record of one executed µop.
 * Shared by the OoO commit path and the functional fast-forward loop
 * so both feed the StateDigest the byte-identical record for the same
 * committed instruction (docs/sampling.md relies on this).
 */
inline CommitRecord
commitRecordOf(const StepInfo &si)
{
    CommitRecord cr;
    cr.pc = si.pc;
    cr.writes_reg = si.inst->writesDst();
    cr.reg = si.inst->rd;
    cr.reg_value = si.dst_value;
    cr.is_store = si.is_store;
    cr.store_addr = si.addr;
    cr.store_value = si.dst_value;
    return cr;
}

/**
 * Timing-free functional fast-forward: advance architectural state by
 * up to @p max_insts instructions at native dispatch-loop speed. No
 * timing structure is touched; with @p digest attached every executed
 * instruction feeds the differential oracle exactly as the detailed
 * commit path would, so a fast-forwarded prefix hashes identically to
 * a detailed one over the same stream.
 *
 * @return instructions executed (less than @p max_insts only if the
 *         program halted first).
 */
uint64_t fastForward(const Program &prog, CpuState &state,
                     MemoryImage &mem, uint64_t max_insts,
                     StateDigest *digest = nullptr);

} // namespace vrsim

#endif // VRSIM_ISA_INTERP_HH
