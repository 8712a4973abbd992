#include "runahead/lane_executor.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/digest.hh"

namespace vrsim
{

namespace
{

/**
 * Do all active lanes agree on the source values of @p inst? When
 * they do, the instruction is issued once as a scalar; when they
 * differ it occupies one VIR copy per 8 lanes.
 */
bool
sourcesUniform(const Inst &inst, const std::vector<Lane> &lanes,
               const LaneMask &mask)
{
    int first = -1;
    for (unsigned j = 0; j < lanes.size(); j++) {
        if (!mask.test(j) || lanes[j].done)
            continue;
        if (first < 0) {
            first = int(j);
            continue;
        }
        auto same = [&](uint8_t r) {
            return r == REG_NONE ||
                   lanes[j].ctx.regs[r] == lanes[first].ctx.regs[r];
        };
        if (!same(inst.rs1) || !same(inst.rs2) || !same(inst.rs3))
            return false;
    }
    return true;
}

} // namespace

Cycle
LaneExecutor::seed(std::vector<Lane> &lanes, const CpuState &from,
                   const StepInfo &load, int64_t stride, uint64_t first,
                   Cycle start)
{
    VectorIssueRegister vir(cfg_);
    vir.start(start);
    LaneMask all;
    for (unsigned j = 0; j < lanes.size(); j++)
        all.set(j);
    const Cycle gather0 = vir.issue(all, true);

    const Inst &sload = *load.inst;
    for (unsigned j = 0; j < lanes.size(); j++) {
        Lane &lane = lanes[j];
        lane.ctx = from;
        lane.ctx.pc = load.next_pc;
        uint64_t addr = uint64_t(int64_t(load.addr) +
                                 stride * int64_t(first + j));
        Cycle issue = gather0 + vir.copyOf(j);
        AccessResult res = hier_.access(addr, 0, issue, false,
                                        Requester::Runahead);
        lane.ready = issue + res.latency;
        uint64_t value = sload.op == Op::Ld32 ? image_.read32(addr)
                                              : image_.read64(addr);
        if (sload.writesDst())
            lane.ctx.setReg(sload.rd, value);
    }
    return vir.now();
}

LaneRunStats
LaneExecutor::run(std::vector<Lane> &lanes, uint32_t stride_pc,
                  uint32_t flr_pc, bool stop_at_flr, bool reconverge,
                  Cycle start_cycle, Vrat *vrat)
{
    LaneRunStats st;
    VectorIssueRegister vir(cfg_);
    vir.start(start_cycle);
    ReconvergenceStack stack(cfg_.reconv_stack_entries);

    panicIfNot(lanes.size() <= MAX_LANES, "too many lanes");

    LaneMask active;
    uint32_t pc = 0;
    bool have_pc = false;
    for (unsigned j = 0; j < lanes.size(); j++) {
        if (lanes[j].done)
            continue;
        active.set(j);
        if (!have_pc) {
            pc = lanes[j].ctx.pc;
            have_pc = true;
        } else {
            panicIfNot(lanes[j].ctx.pc == pc,
                       "lanes must share pc on entry");
        }
    }

    Cycle last_issue = start_cycle;

    // Forward-progress watchdog on the SIMT loop. Every iteration
    // either executes at least one lane instruction (bounded by
    // lanes x subthread_timeout), pops the bounded stack, or kills a
    // group, so this limit is unreachable unless the loop wedges; it
    // converts a simulator hang into a diagnosable HangError.
    const uint64_t step_limit =
        (uint64_t(lanes.size()) + 1) *
            (uint64_t(cfg_.subthread_timeout) + 2) * 4 +
        1024;
    uint64_t steps = 0;

    // Lane execution is transient by definition: the guard makes any
    // commit recorded inside it panic (see sim/digest.hh).
    ScopedSpeculation spec;

    while (true) {
        if (++steps > step_limit) {
            ProgressSnapshot snap;
            snap.where = "runahead.lanes";
            snap.pc = pc;
            snap.retired = st.insts;
            snap.cycles = vir.now();
            hang("lane executor exceeded its structural step bound "
                 "(" + std::to_string(step_limit) + ")",
                 std::move(snap));
        }
        // Refill the active group from the reconvergence stack.
        if (active.none()) {
            if (stack.empty())
                break;
            auto e = stack.pop();
            pc = e.pc;
            active = e.mask;
            for (unsigned j = 0; j < lanes.size(); j++)
                if (active.test(j) && lanes[j].done)
                    active.reset(j);
            continue;
        }

        if (pc >= prog_.size()) {
            // Ran off the program (speculative wild path): kill group.
            for (unsigned j = 0; j < lanes.size(); j++)
                if (active.test(j))
                    lanes[j].done = true;
            active.reset();
            continue;
        }

        const Inst &inst = prog_.at(pc);
        const bool vectorized = !sourcesUniform(inst, lanes, active);

        // VRAT bookkeeping: vector results need a fresh set of vector
        // physical registers; scalar overwrites of vectorized
        // registers rename back and free the set. An exhausted free
        // list stalls the in-order subthread until registers recycle
        // (we charge one vector-instruction round).
        if (vrat && inst.writesDst()) {
            if (vectorized) {
                if (!vrat->isVectorized(inst.rd) &&
                    !vrat->vectorizeDst(inst.rd)) {
                    vir.waitUntil(vir.now() + cfg_.vector_regs);
                    vrat->vectorizeDst(inst.rd);
                }
            } else if (vrat->isVectorized(inst.rd)) {
                vrat->scalarizeDst(inst.rd);
            }
        }

        Cycle t0 = vir.issue(active, vectorized);
        const uint64_t pf_before_step = st.prefetches;
        const uint32_t active_at_issue = uint32_t(active.count());

        // Execute all active lanes functionally and time their
        // memory accesses.
        uint32_t common_next = UINT32_MAX;
        bool divergent = false;
        // A lane rides VIR copy rank / lanes_per_vector, where rank
        // counts the earlier lanes still active. Known quirk, kept
        // because fixing it changes statistics (ROADMAP item 1):
        // vir.issue() charged one copy per lanes_per_vector lanes
        // active at issue, but a lane that ends at this instruction
        // (every lane does at the FLR load) drops out of the rank of
        // the lanes after it, which then issue in an earlier copy than
        // the one charged for them.
        uint32_t rank = 0;
        for (unsigned j = 0; j < lanes.size(); j++) {
            if (!active.test(j))
                continue;
            Lane &lane = lanes[j];
            lane.ctx.pc = pc;
            StepInfo si = step(prog_, lane.ctx, image_, true);
            ++lane.insts;
            ++st.insts;

            if (si.is_mem && !si.is_store) {
                Cycle copy = vectorized ? vir.copyOf(rank) : 0;
                // t0 >= the spawning stall's dispatch point: lane
                // traffic stays at or after the calendar horizon
                // (docs/performance.md), so the shared calendars can
                // retire history instead of being polled while idle.
                Cycle issue = std::max(t0 + copy, lane.ready);
                AccessResult res = hier_.access(si.addr, 0, issue,
                                                false,
                                                Requester::Runahead);
                lane.ready = issue + res.latency;
                last_issue = std::max(last_issue, issue);
                ++st.prefetches;
            }

            if (common_next == UINT32_MAX)
                common_next = si.next_pc;
            else if (si.next_pc != common_next)
                divergent = true;

            // Per-lane termination conditions.
            bool term = false;
            if (lane.ctx.halted)
                term = true;
            else if (stop_at_flr && flr_pc != 0 && pc == flr_pc &&
                     inst.isLoad())
                term = true;
            else if (si.next_pc == stride_pc && lane.insts > 0)
                term = true;
            else if (lane.insts >= cfg_.subthread_timeout)
                term = true;
            if (term) {
                lane.done = true;
                active.reset(j);
            } else {
                ++rank;
            }
        }

        if (tsink_ && tsink_->enabled(TraceCat::Lanes) &&
            st.prefetches > pf_before_step)
            tsink_->lane(t0, pc, active_at_issue,
                         uint32_t(st.prefetches - pf_before_step));

        if (active.none())
            continue;

        if (!divergent) {
            pc = common_next;
            continue;
        }

        ++st.divergences;
        if (!reconverge) {
            // VR semantics: follow the first active lane, invalidate
            // the rest.
            unsigned first = 0;
            while (first < lanes.size() && !active.test(first))
                ++first;
            uint32_t lead_pc = lanes[first].ctx.pc;
            for (unsigned j = first + 1; j < lanes.size(); j++) {
                if (active.test(j) && lanes[j].ctx.pc != lead_pc) {
                    lanes[j].done = true;
                    active.reset(j);
                    ++st.invalidated;
                }
            }
            pc = lead_pc;
            continue;
        }

        // DVR semantics: split by next pc, follow the first lane's
        // group, push the others.
        unsigned first = 0;
        while (first < lanes.size() && !active.test(first))
            ++first;
        uint32_t lead_pc = lanes[first].ctx.pc;
        // Group the non-leading lanes by destination pc.
        while (true) {
            uint32_t group_pc = UINT32_MAX;
            LaneMask group;
            for (unsigned j = 0; j < lanes.size(); j++) {
                if (!active.test(j) || lanes[j].ctx.pc == lead_pc)
                    continue;
                if (group_pc == UINT32_MAX)
                    group_pc = lanes[j].ctx.pc;
                if (lanes[j].ctx.pc == group_pc) {
                    group.set(j);
                    active.reset(j);
                }
            }
            if (group_pc == UINT32_MAX)
                break;
            if (!stack.push(group_pc, group)) {
                // Stack full: these lanes are dropped.
                for (unsigned j = 0; j < lanes.size(); j++)
                    if (group.test(j))
                        lanes[j].done = true;
            }
        }
        pc = lead_pc;
    }

    if (invariant_checks_) {
        // The loop exits only once the active group and the stack are
        // both drained: every pushed divergence group must have been
        // popped (drops never enter the stack).
        panicIfNot(stack.empty() && stack.pushes() == stack.pops(),
                   "reconvergence stack unbalanced at subthread end "
                   "(pushes=" + std::to_string(stack.pushes()) +
                       " pops=" + std::to_string(stack.pops()) + ")");
    }

    st.end_time = std::max(vir.now(), last_issue + 1);
    return st;
}

} // namespace vrsim
