#include "runahead/pre.hh"

#include <algorithm>
#include <array>

#include "sim/digest.hh"

namespace vrsim
{

Cycle
PreEngine::onFullRobStall(Cycle stall_start, Cycle head_fill,
                          const CpuState &frontier, TriggerKind kind)
{
    if (head_fill <= stall_start)
        return head_fill;
    // On a mispredict-induced stall the window holds wrong-path
    // µops; PRE's chain pre-execution would chase garbage, so it
    // only engages on genuine window-exhaustion stalls.
    if (kind == TriggerKind::BranchStall)
        return head_fill;
    ++stats_.intervals;
    const uint64_t pf_before = stats_.prefetches;
    traceRunahead(stall_start, "enter", "window", frontier.pc, 0, 0);

    // Runahead executes future instructions using the front-end's
    // delivery rate for the duration of the interval. We track
    // per-register value-ready times seeded at the stall start; a
    // load whose operands are not ready before the interval ends
    // cannot issue (dependent on an in-runahead miss), which models
    // PRE's first-level-of-indirection limit.
    CpuState ctx = frontier;
    std::array<Cycle, NUM_ARCH_REGS> ready{};
    ready.fill(stall_start);

    const Cycle interval_end = head_fill;
    const uint32_t width = cfg_.core.width;
    uint64_t walked = 0;

    // Everything below is transient pre-execution: the guard makes
    // any commit recorded inside it panic (see sim/digest.hh).
    ScopedSpeculation spec;

    while (!ctx.halted && walked < cfg_.runahead.pre_chain_cap) {
        // Front-end supply: instruction `walked` arrives at this time.
        Cycle fetch_time = stall_start + walked / width;
        if (fetch_time >= interval_end)
            break;

        StepInfo si = step(prog_, ctx, image_, true);
        ++walked;
        ++stats_.insts_examined;

        const Inst &inst = *si.inst;
        Cycle opready = fetch_time;
        auto use = [&](uint8_t r) {
            if (r != REG_NONE)
                opready = std::max(opready, ready[r]);
        };
        use(inst.rs1);
        use(inst.rs2);

        if (si.is_mem && !si.is_store) {
            if (opready >= interval_end) {
                // Dependent load: its inputs return after runahead
                // terminates; PRE cannot prefetch it.
                ++stats_.skipped_dependent;
                if (inst.writesDst())
                    ready[inst.rd] = opready + cfg_.dram.latency;
                continue;
            }
            // Issues at opready >= the triggering stall's dispatch
            // point — the calendar-horizon floor every requester
            // honours (docs/performance.md), which is what lets the
            // cycle-skipping calendars retire history behind the
            // core instead of being polled while idle.
            AccessResult res = hier_.access(si.addr, 0, opready, false,
                                            Requester::Runahead);
            ++stats_.prefetches;
            if (inst.writesDst())
                ready[inst.rd] = opready + res.latency;
        } else if (inst.writesDst()) {
            ready[inst.rd] = opready + 1;
        }
    }

    traceRunahead(head_fill, "exit", "window", frontier.pc, 0,
                  stats_.prefetches - pf_before);
    return head_fill;   // PRE exits when the blocking load returns
}

} // namespace vrsim
