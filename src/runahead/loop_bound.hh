/**
 * @file
 * The Loop-Bound Detector (paper §4.1.3): Final-Load Register (FLR),
 * Last-Compare Register (LCR), Seen-Branch Bit (SBB) and two
 * architectural-register checkpoints, inferring how many iterations
 * remain in the inner loop so the vector subthread does not fetch
 * out-of-bounds data.
 */

#ifndef VRSIM_RUNAHEAD_LOOP_BOUND_HH
#define VRSIM_RUNAHEAD_LOOP_BOUND_HH

#include <array>
#include <cstdint>
#include <optional>

#include "isa/interp.hh"

namespace vrsim
{

/** Result of loop-bound inference at the end of Discovery Mode. */
struct LoopBoundInfo
{
    bool valid = false;       //!< a (bound, increment) pair was matched
    uint8_t induction_reg = REG_NONE; //!< the register that changes
    uint8_t bound_reg = REG_NONE;     //!< the register that stays fixed
    int64_t increment = 0;    //!< per-iteration induction delta
    uint64_t bound_value = 0; //!< loop bound (constant input value)
    uint32_t branch_pc = 0;   //!< the backward branch
    uint32_t loop_head_pc = 0; //!< its taken destination
};

/** The Loop-Bound Detector state machine, driven by Discovery Mode. */
class LoopBoundDetector
{
  public:
    /** Begin Discovery: checkpoint the register file. */
    void
    enter(const CpuState &state, uint32_t stride_pc)
    {
        entry_regs_ = state.regs;
        stride_pc_ = stride_pc;
        flr_ = 0;
        sbb_ = false;
        lcr_valid_ = false;
        lcr_rd_ = REG_NONE;
        lcr_rs1_ = REG_NONE;
        lcr_rs2_ = REG_NONE;
        branch_pc_ = 0;
        loop_head_pc_ = 0;
    }

    /** A tainted-input load updated the FLR: restart LCR/SBB search. */
    void
    finalLoadSeen(uint32_t pc)
    {
        flr_ = pc;
        sbb_ = false;
        lcr_valid_ = false;
    }

    /** Observe a compare instruction during Discovery Mode. */
    void
    compareSeen(uint32_t pc, const Inst &inst)
    {
        (void)pc;
        if (sbb_)
            return;
        lcr_rd_ = inst.rd;
        lcr_rs1_ = inst.rs1;
        lcr_rs2_ = inst.rs2;
        lcr_valid_ = true;
    }

    /**
     * Observe a conditional branch. A backward branch (taken target
     * at or before the striding load) sourced by the last compare
     * locks the LCR (sets the SBB).
     */
    void
    branchSeen(uint32_t pc, const Inst &inst, uint32_t taken_dest)
    {
        if (sbb_ || !lcr_valid_)
            return;
        if (inst.rs1 != lcr_rd_)
            return;
        if (taken_dest > stride_pc_)
            return;
        sbb_ = true;
        branch_pc_ = pc;
        loop_head_pc_ = taken_dest;
    }

    /** FLR value (0 = no dependent load chain found). */
    uint32_t flr() const { return flr_; }
    bool sbbSet() const { return sbb_; }

    /**
     * End of Discovery Mode: compare the entry checkpoint with the
     * exit state. If exactly one LCR input changed, the constant one
     * is the bound and the delta of the changing one the increment.
     */
    LoopBoundInfo
    infer(const CpuState &exit_state) const
    {
        LoopBoundInfo info;
        info.branch_pc = branch_pc_;
        info.loop_head_pc = loop_head_pc_;
        if (!sbb_ || lcr_rs1_ == REG_NONE)
            return info;

        auto delta = [&](uint8_t r) -> int64_t {
            if (r == REG_NONE || r >= NUM_ARCH_REGS)
                return 0;
            return int64_t(exit_state.regs[r]) - int64_t(entry_regs_[r]);
        };
        int64_t d1 = delta(lcr_rs1_);
        int64_t d2 = lcr_rs2_ == REG_NONE ? 0 : delta(lcr_rs2_);

        uint8_t changing = REG_NONE, constant = REG_NONE;
        if (d1 != 0 && d2 == 0) {
            changing = lcr_rs1_;
            constant = lcr_rs2_;
        } else if (d1 == 0 && d2 != 0 && lcr_rs2_ != REG_NONE) {
            changing = lcr_rs2_;
            constant = lcr_rs1_;
        } else {
            return info;   // no unique (constant, changing) pair
        }

        info.valid = true;
        info.induction_reg = changing;
        info.bound_reg = constant;
        info.increment = changing == lcr_rs1_ ? d1 : d2;
        info.bound_value = constant == REG_NONE
            ? 0 : exit_state.regs[constant];
        return info;
    }

    /**
     * Remaining iterations given the current induction value; empty
     * when inference failed (caller falls back to the 128 cap).
     */
    static std::optional<uint64_t>
    remainingIterations(const LoopBoundInfo &info,
                        const CpuState &state)
    {
        if (!info.valid || info.increment == 0)
            return std::nullopt;
        if (info.induction_reg >= NUM_ARCH_REGS ||
            info.bound_reg >= NUM_ARCH_REGS) {
            return std::nullopt;
        }
        int64_t cur = int64_t(state.regs[info.induction_reg]);
        int64_t bound = int64_t(state.regs[info.bound_reg]);
        int64_t remaining = (bound - cur) / info.increment;
        if (remaining < 0)
            remaining = 0;
        return uint64_t(remaining);
    }

  private:
    std::array<uint64_t, NUM_ARCH_REGS> entry_regs_{};
    uint32_t stride_pc_ = 0;
    uint32_t flr_ = 0;
    bool sbb_ = false;
    bool lcr_valid_ = false;
    uint8_t lcr_rd_ = REG_NONE;
    uint8_t lcr_rs1_ = REG_NONE;
    uint8_t lcr_rs2_ = REG_NONE;
    uint32_t branch_pc_ = 0;
    uint32_t loop_head_pc_ = 0;
};

} // namespace vrsim

#endif // VRSIM_RUNAHEAD_LOOP_BOUND_HH
