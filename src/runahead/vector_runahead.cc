#include "runahead/vector_runahead.hh"

#include <algorithm>

#include "sim/digest.hh"

namespace vrsim
{

void
VectorRunahead::onInstruction(const StepInfo &si, const CpuState &after,
                              Cycle cycle)
{
    (void)after;
    (void)cycle;
    // Train the runahead stride detector on the main thread's loads
    // (software prefetches are non-binding and do not train).
    if (si.is_mem && !si.is_store && !si.inst->isPrefetch())
        rpt_.train(si.pc, si.addr);
}

Cycle
VectorRunahead::onFullRobStall(Cycle stall_start, Cycle head_fill,
                               const CpuState &frontier,
                               TriggerKind kind)
{
    // VR vectorizes from the stride detector, whose future iterations
    // are on the correct path even when the trigger came from a
    // wrong-path window, so both trigger kinds engage it.
    ++stats_.triggers;
    const uint64_t pf_before = stats_.prefetches;
    const char *kind_name = triggerKindName(kind);
    traceRunahead(stall_start, "enter", kind_name, frontier.pc, 0, 0);

    // The whole runahead interval (scan + vectorized lanes) is
    // transient execution: the guard makes any commit recorded inside
    // it panic (see sim/digest.hh).
    ScopedSpeculation spec;

    // Runahead mode: transiently execute the future instruction
    // stream from the fetch frontier until a striding load is found
    // (the front-end keeps supplying instructions at `width` per
    // cycle while the ROB drains nothing).
    CpuState scan = frontier;
    const uint32_t scan_cap = cfg_.runahead.discovery_max_insts;
    uint32_t scanned = 0;
    const RptEntry *entry = nullptr;
    StepInfo hit{};
    while (!scan.halted && scanned < scan_cap) {
        StepInfo si = step(prog_, scan, image_, true);
        ++scanned;
        if (si.is_mem && !si.is_store) {
            if (const RptEntry *e = rpt_.predict(si.pc)) {
                entry = e;
                hit = si;
                break;
            }
        }
    }
    if (!entry) {
        traceRunahead(head_fill, "exit", kind_name, frontier.pc, 0, 0);
        return head_fill;
    }

    ++stats_.vectorizations;

    // Speculatively vectorize: 128 lanes covering the next 128
    // iterations of the striding load, unconditionally (VR has no
    // loop-bound inference — the source of its over-fetching). The
    // vector gathers for the striding load itself are 16 AVX-512
    // copies issued back to back once the front end has delivered the
    // scanned instructions.
    std::vector<Lane> lanes(cfg_.runahead.max_lanes());
    const Cycle chain_start = executor_.seed(
        lanes, scan, hit, entry->stride, 1,
        stall_start + cfg_.core.frontend_stages / 3 +
            scanned / cfg_.core.width);
    stats_.prefetches += lanes.size();
    stats_.lanes_spawned += lanes.size();

    // Run the dependence chain: VR follows the first lane's control
    // flow and invalidates divergent lanes; it does not know the FLR,
    // so lanes run until the next occurrence of the striding load.
    LaneRunStats lr = executor_.run(lanes, hit.pc, 0, false, false,
                                    chain_start);
    stats_.prefetches += lr.prefetches;
    stats_.lanes_invalidated += lr.invalidated;

    // Delayed termination: runahead ends only when the entire chain's
    // accesses have been generated.
    Cycle exit = std::max(head_fill, lr.end_time);
    stats_.delayed_term_cycles += exit - head_fill;
    traceRunahead(exit, "exit", kind_name, frontier.pc, lanes.size(),
                  stats_.prefetches - pf_before);
    return exit;
}

} // namespace vrsim
