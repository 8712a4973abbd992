#include "core/ooo_core.hh"

#include <algorithm>
#include <queue>
#include <vector>

#include "obs/stats_registry.hh"
#include "obs/trace.hh"

namespace vrsim
{

namespace
{

/** PCs handed to the memory hierarchy are offset so pc 0 is valid. */
uint64_t
pcKey(uint32_t pc)
{
    return uint64_t(pc) + 1;
}

} // namespace

void
CoreStats::registerIn(StatsRegistry &reg) const
{
    StatRecord::registerIn(reg);
    reg.addFormula(
        "core.ipc",
        [](const StatsRegistry &r) {
            double cyc = r.value("core.cycles");
            return cyc ? r.value("core.instructions") / cyc : 0.0;
        },
        "retired instructions per cycle");

    const CpiStack cs = cpiStack();
    reg.addGauge("cpi.base", "CPI not attributed to any stall source") =
        cs.base;
    reg.addGauge("cpi.frontend", "CPI from mispredict redirects") =
        cs.frontend;
    reg.addGauge("cpi.issue_queue", "CPI from issue-queue stalls") =
        cs.issue_queue;
    reg.addGauge("cpi.load_queue", "CPI from load-queue stalls") =
        cs.load_queue;
    reg.addGauge("cpi.store_queue", "CPI from store-queue stalls") =
        cs.store_queue;
    reg.addGauge("cpi.rob", "CPI from full-ROB stalls") = cs.rob;
    reg.addGauge("cpi.runahead",
                 "CPI from VR delayed-termination commit stalls") =
        cs.runahead;
    reg.addGauge("cpi.total", "total cycles per instruction") =
        cs.total();
}

OooCore::OooCore(const SystemConfig &cfg, const Program &prog,
                 MemoryImage &image, MemoryHierarchy &hier,
                 RunaheadEngine *engine)
    : cfg_(cfg), prog_(prog), image_(image), hier_(hier),
      engine_(engine), l1i_("l1i", cfg.l1i)
{
    cfg_.validate(false);
    const CoreConfig &c = cfg.core;
    int_add_ = PortBank(c.int_add_units, c.int_add_lat, true);
    int_mul_ = PortBank(c.int_mul_units, c.int_mul_lat, true);
    int_div_ = PortBank(c.int_div_units, c.int_div_lat, false);
    fp_add_ = PortBank(c.fp_add_units, c.fp_add_lat, true);
    fp_mul_ = PortBank(c.fp_mul_units, c.fp_mul_lat, true);
    fp_div_ = PortBank(c.fp_div_units, c.fp_div_lat, false);
    load_ports_ = PortBank(c.load_ports, 1, true);
    store_ports_ = PortBank(c.store_ports, 1, true);
}

CoreStats
OooCore::run(const CpuState &init, uint64_t max_insts,
             uint64_t warmup_insts, const std::function<void()> &at_warmup)
{
    CpuState state = init;
    Cycle clock = 0;
    return runFrom(state, max_insts, warmup_insts, clock, at_warmup);
}

CoreStats
OooCore::runFrom(CpuState &state, uint64_t max_insts,
                 uint64_t warmup_insts, Cycle &clock,
                 const std::function<void()> &at_warmup)
{
    const CoreConfig &c = cfg_.core;
    const bool oracle = cfg_.technique == Technique::Oracle;
    uint64_t budget = max_insts ? max_insts : cfg_.max_insts;
    // Segmented (sampled) runs re-enter with the clock where the last
    // window (or warming fast-forward) left it: every timestamp below
    // is measured against this base, so the reported cycles cover this
    // window only while cache recency and calendar reservations stay
    // monotone across windows.
    const Cycle base = clock;

    CoreStats st;

    // Writeback time per architectural register, padded to the full
    // uint8_t range so REG_NONE (0xFF) indexes a permanently-zero
    // slot: operand wakeup then reads every source field
    // unconditionally instead of branching on REG_NONE per operand.
    static_assert(REG_NONE == 0xFF && NUM_ARCH_REGS <= 0xFF);
    std::array<Cycle, 256> reg_ready{};

    // Ring buffers modelling structure occupancy: entry i % N holds
    // the cycle at which the instruction N-before the current one
    // freed its slot.
    std::vector<Cycle> rob_ring(c.rob_size, 0);
    std::vector<uint8_t> rob_head_trigger(c.rob_size, 0);
    std::vector<Cycle> rob_head_fill(c.rob_size, 0);
    // Issue-queue occupancy: instructions wait in the IQ from
    // dispatch to issue, out of order. A slot is free for inst i once
    // at most IQ-1 older instructions are still waiting, i.e. at the
    // IQ-th largest issue time among older instructions. We keep the
    // IQ largest issue times in a min-heap.
    std::priority_queue<Cycle, std::vector<Cycle>,
                        std::greater<Cycle>> iq_heap;
    // Loads/stores leave their queues at commit (in order), so rings
    // indexed by load/store count are exact.
    std::vector<Cycle> lq_ring(c.load_queue, 0);
    std::vector<uint8_t> lq_trigger(c.load_queue, 0);
    std::vector<Cycle> lq_fill(c.load_queue, 0);
    std::vector<Cycle> sq_ring(c.store_queue, 0);
    std::vector<Cycle> commit_width_ring(c.width, 0);
    uint64_t load_count = 0;
    uint64_t store_count = 0;
    // Ring cursors tracking i % rob_size (etc.) incrementally: the
    // structure sizes are not powers of two, so a literal modulo is
    // a hardware divide on every dispatched instruction.
    uint32_t rob_idx = 0;  // i % c.rob_size
    uint32_t cw_idx = 0;   // i % c.width
    uint32_t lq_idx = 0;   // load_count % c.load_queue
    uint32_t sq_idx = 0;   // store_count % c.store_queue

    Cycle disp_cycle = base;
    uint32_t disp_count = 0;
    Cycle fetch_resume = base;
    uint64_t last_iline = UINT64_MAX;  // L1I same-line fast path
    Cycle last_iline_cycle = base;
    Cycle last_commit = base;
    Cycle commit_floor = base;
    uint64_t last_trigger_head = UINT64_MAX;
    Cycle last_cycle = base;

    CoreStats warm;

    // Forward-progress watchdog: how the run looked when the snapshot
    // is taken at expiry. ROB occupancy = entries whose commit is
    // still in the future at the current cycle.
    const uint64_t watchdog = cfg_.watchdog_cycles;
    auto progressSnapshot = [&](uint64_t retired, const char *where) {
        ProgressSnapshot snap;
        snap.where = where;
        snap.pc = state.pc;
        snap.retired = retired;
        snap.cycles = last_cycle;
        for (Cycle freed : rob_ring)
            if (freed > last_cycle)
                ++snap.rob_occupancy;
        snap.mshr_busy = hier_.l1Mshrs().busyAt(last_cycle);
        return snap;
    };

    // Window exhaustion: dispatch at d waits for a ROB or LQ slot that
    // frees at slot_free. When the window's head is a long-latency
    // load (trigger set, data back at head_fill) the engine runs once
    // per head; a resume past the slot's release (VR's delayed
    // termination) holds both the slot and commit. Returns the cycle
    // dispatch may proceed at.
    auto windowFull = [&](Cycle d, Cycle slot_free, bool trigger,
                          uint64_t head, Cycle head_fill) {
        if (!engine_ || !trigger || head == last_trigger_head)
            return slot_free;
        ++st.full_rob_stall_events;
        last_trigger_head = head;
        Cycle resume = engine_->onFullRobStall(d, head_fill, state);
        if (resume <= slot_free)
            return slot_free;
        st.runahead_commit_stall += resume - slot_free;
        commit_floor = std::max(commit_floor, resume);
        return resume;
    };

    uint64_t i = 0;
    for (; !state.halted && (budget == 0 || i < budget); i++) {
        // A run with no instruction budget anywhere (max_insts = 0)
        // terminates only if the program halts; bound it so a
        // non-halting program raises a diagnosable HangError instead
        // of spinning forever. A budgeted run terminates by
        // construction, so only the per-instruction gap check below
        // applies there.
        if (watchdog && budget == 0 && last_cycle - base > watchdog)
            hang("unbounded run passed " + std::to_string(watchdog) +
                     " cycles without halting (raise "
                     "--watchdog-cycles for longer programs)",
                 progressSnapshot(i, "core.run"));
        if (warmup_insts && i == warmup_insts) {
            warm = st;
            warm.instructions = i;
            warm.cycles = last_cycle - base;
            if (at_warmup)
                at_warmup();
        }
        // Event-calendar housekeeping: every reservation made from
        // here on — demand load/store, L1I fill, software or stride
        // prefetch, or a runahead engine's — starts at or after the
        // current dispatch point (docs/performance.md proves the
        // floor), so calendar history behind it is dead. Retire it
        // in bulk so resident calendar state tracks the instruction
        // window rather than the whole run. The slack keeps a full
        // retirement granule of history around the horizon so
        // boundary queries (e.g. hang snapshots) stay answerable.
        constexpr Cycle RETIRE_SLACK = 8192;
        if ((i & 0xFFF) == 0 && disp_cycle > RETIRE_SLACK) {
            const Cycle horizon = disp_cycle - RETIRE_SLACK;
            hier_.retireHistory(horizon);
            int_add_.retireBefore(horizon);
            int_mul_.retireBefore(horizon);
            int_div_.retireBefore(horizon);
            fp_add_.retireBefore(horizon);
            fp_mul_.retireBefore(horizon);
            fp_div_.retireBefore(horizon);
            load_ports_.retireBefore(horizon);
            store_ports_.retireBefore(horizon);
        }
        StepInfo si = step(prog_, state, image_);

        // ---------------- fetch: L1I ----------------
        // µops are 4 bytes in a notional text segment; an I-cache
        // miss stalls fetch for an L2 access (kernels fit in the
        // 32 KB L1I after the first touch).
        //
        // Same-line fast path: this block is the only L1I user, so
        // between two fetches of the same line no insert (and hence
        // no eviction) can occur — a repeat fetch is a guaranteed hit
        // and its next-line prefetch a guaranteed no-op. Skipping the
        // array walks is byte-identical as long as the line's LRU
        // timestamp is caught up before the next different-line
        // access observes it (the lookup below on line change); the
        // interleaved inserts of line+1 land in a different set and
        // cannot consult this set's recency.
        {
            uint64_t iline = l1i_.lineAddr(uint64_t(si.pc) * 4);
            if (iline != last_iline) {
                if (last_iline != UINT64_MAX)
                    l1i_.lookup(last_iline, last_iline_cycle);
                if (!l1i_.lookup(iline, disp_cycle)) {
                    ++st.icache_misses;
                    l1i_.insert(iline, disp_cycle,
                                disp_cycle + cfg_.l2.latency,
                                Requester::Demand);
                    fetch_resume = std::max(fetch_resume,
                                            disp_cycle + cfg_.l2.latency);
                }
                // Sequential next-line instruction prefetch:
                // straight-line fetch runs ahead of demand, so only
                // the first line of a fresh region pays the miss.
                if (!l1i_.peek(iline + 1)) {
                    l1i_.insert(iline + 1, disp_cycle,
                                disp_cycle + cfg_.l2.latency,
                                Requester::StridePf);
                }
                last_iline = iline;
            }
            last_iline_cycle = disp_cycle;
        }

        // ---------------- dispatch ----------------
        Cycle d = disp_cycle;
        if (fetch_resume > d) {
            st.stall_fetch += fetch_resume - d;
            d = fetch_resume;
        }
        if (iq_heap.size() >= c.issue_queue && iq_heap.top() > d) {
            st.stall_iq += iq_heap.top() - d;
            d = iq_heap.top();
        }
        if (si.is_mem && !si.is_store && lq_ring[lq_idx] > d) {
            // The load queue is the instruction window's binding
            // resource for load-heavy code (128 loads span fewer
            // µops than the 350-entry ROB): a full LQ blocked on a
            // long-latency load is the same window-exhaustion event
            // as a full ROB, and triggers runahead identically.
            st.stall_lq += lq_ring[lq_idx] - d;
            // LQ heads are keyed apart from ROB heads by the top bit.
            uint64_t lhead = load_count >= c.load_queue
                ? load_count - c.load_queue : 0;
            d = windowFull(d, lq_ring[lq_idx], lq_trigger[lq_idx],
                           lhead | (1ull << 63), lq_fill[lq_idx]);
        }
        if (si.is_store && sq_ring[sq_idx] > d) {
            st.stall_sq += sq_ring[sq_idx] - d;
            d = sq_ring[sq_idx];
        }

        if (rob_ring[rob_idx] > d) {
            st.rob_stall_cycles += rob_ring[rob_idx] - d;
            uint64_t head_idx = i >= c.rob_size ? i - c.rob_size : 0;
            d = windowFull(d, rob_ring[rob_idx], rob_head_trigger[rob_idx],
                           head_idx, rob_head_fill[rob_idx]);
        }

        // Width enforcement.
        if (d > disp_cycle) {
            disp_cycle = d;
            disp_count = 1;
        } else if (disp_count < c.width) {
            ++disp_count;
        } else {
            ++disp_cycle;
            d = disp_cycle;
            disp_count = 1;
        }
        const Cycle dispatch = d;

        // ---------------- issue & execute ----------------
        bool mispredicted_now = false;
        Cycle ready = dispatch + 1;
        const Inst &inst = *si.inst;
        // Branchless wakeup: REG_NONE and a non-store's rs3 both
        // land on the always-zero padding slots of reg_ready.
        ready = std::max(ready, reg_ready[inst.rs1]);
        ready = std::max(ready, reg_ready[inst.rs2]);
        ready = std::max(ready,
                         reg_ready[si.is_store ? inst.rs3 : REG_NONE]);

        Cycle complete = ready;
        Cycle issue = ready;
        bool trigger_candidate = false;
        Cycle fill_cycle = 0;

        const FuClass fu = inst.traits().fu;
        if (inst.isPrefetch()) {
            // Software prefetch: occupies a load port, kicks the
            // line fill, completes immediately (non-binding).
            issue = load_ports_.issue(ready);
            if (!oracle)
                hier_.access(si.addr, pcKey(si.pc), issue, false,
                             Requester::StridePf);
            complete = issue + 1;
        } else if (si.is_mem && !si.is_store) {
            ++st.loads;
            issue = load_ports_.issue(ready);
            Cycle lat;
            if (oracle) {
                // The paper's Oracle "knows all memory accesses in
                // advance and prefetches them at the appropriate
                // point in time to avoid stalling": modelled as the
                // pure upper bound where every load completes with
                // the L1 hit latency and charges no hierarchy
                // resources (see EXPERIMENTS.md for the caveat).
                lat = cfg_.l1d.latency;
            } else {
                AccessResult res = hier_.access(si.addr, pcKey(si.pc),
                                                issue, false,
                                                Requester::Demand);
                lat = res.latency;
                if (lat >= cfg_.l3.latency) {
                    trigger_candidate = true;
                    fill_cycle = issue + lat;
                }
            }
            complete = issue + lat;
        } else if (si.is_store) {
            ++st.stores;
            issue = store_ports_.issue(ready);
            complete = issue + 1;
        } else if (fu != FuClass::None) {
            PortBank &bank = portsFor(fu);
            issue = bank.issue(ready);
            complete = issue + bank.latency;
        }

        if (inst.writesDst())
            reg_ready[inst.rd] = complete;

        // ---------------- branches ----------------
        if (si.is_branch && si.taken) {
            // Taken transfers need the BTB for a bubble-free fetch
            // redirect; a miss costs a decode-stage re-steer.
            if (!btb_.hit(pcKey(si.pc))) {
                ++st.btb_misses;
                fetch_resume = std::max(fetch_resume,
                                        dispatch + 1 +
                                            c.frontend_stages / 3);
                btb_.install(pcKey(si.pc), si.next_pc);
            }
        }
        if (si.is_branch && inst.isCondBranch()) {
            ++st.branches;
            bool pred = bp_.predict(pcKey(si.pc));
            bp_.update(pcKey(si.pc), si.taken);
            if (pred != si.taken) {
                mispredicted_now = true;
                ++st.mispredicts;
                Cycle resolve = complete;
                // A mispredicted branch whose resolution waits on a
                // long-latency load lets the front-end fill the
                // entire window with wrong-path µops long before the
                // branch resolves -- the classic full-ROB stall that
                // triggers runahead (the runahead prefetches future
                // striding-load iterations, which are on the correct
                // path even when this branch was not).
                Cycle window_fill = dispatch + c.rob_size / c.width;
                if (engine_ && resolve > window_fill + 16) {
                    ++st.full_rob_stall_events;
                    Cycle resume = engine_->onFullRobStall(
                        window_fill, resolve, state,
                        TriggerKind::BranchStall);
                    if (resume > resolve) {
                        st.runahead_commit_stall += resume - resolve;
                        resolve = resume;
                    }
                }
                fetch_resume = std::max(fetch_resume,
                                        resolve + c.frontend_stages);
            }
        }

        // ---------------- commit ----------------
        Cycle commit = std::max({complete + 1, last_commit,
                                 commit_floor,
                                 commit_width_ring[cw_idx] + 1});
        if (watchdog && commit - dispatch > watchdog)
            hang("no retirement for " + std::to_string(watchdog) +
                     " cycles: a resource reservation pushed commit " +
                     std::to_string(commit - dispatch) +
                     " cycles past dispatch",
                 progressSnapshot(i, "core.commit"));
        last_commit = commit;
        commit_width_ring[cw_idx] = commit;

        // Stores drain to memory post-commit.
        Cycle slot_free = commit;
        if (si.is_store && !oracle) {
            AccessResult res = hier_.access(si.addr, pcKey(si.pc),
                                            commit, true,
                                            Requester::Demand);
            slot_free = commit + (res.latency > cfg_.l1d.latency
                                  ? 1 : 0);
        }

        rob_ring[rob_idx] = commit;
        rob_head_trigger[rob_idx] = trigger_candidate;
        rob_head_fill[rob_idx] = fill_cycle;
        iq_heap.push(issue);
        if (iq_heap.size() > c.issue_queue)
            iq_heap.pop();
        if (si.is_mem && !si.is_store) {
            lq_ring[lq_idx] = commit;
            lq_trigger[lq_idx] = trigger_candidate;
            lq_fill[lq_idx] = fill_cycle;
            ++load_count;
            if (++lq_idx == c.load_queue)
                lq_idx = 0;
        }
        if (si.is_store) {
            sq_ring[sq_idx] = slot_free;
            ++store_count;
            if (++sq_idx == c.store_queue)
                sq_idx = 0;
        }

        last_cycle = std::max(last_cycle, commit);

        // Feed the differential oracle before the engine hook: the
        // engine may open a speculation scope, and retirement must be
        // recorded strictly outside transient execution. The record is
        // built by the same helper the functional fast-forward loop
        // uses, so both paths hash identically (docs/sampling.md).
        if (digest_)
            digest_->retire(commitRecordOf(si));

        if (engine_)
            engine_->onInstruction(si, state, dispatch);

        if (tsink_ && tsink_->enabled(TraceCat::Pipeline)) {
            // ROB occupancy at dispatch: entries whose commit is
            // still in the future. O(rob_size), paid only with the
            // pipeline trace category enabled.
            uint32_t rob_occ = 0;
            for (Cycle freed : rob_ring)
                if (freed > dispatch)
                    ++rob_occ;
            tsink_->inst(i, si.pc, inst.toString(), dispatch, ready,
                         issue, complete, commit,
                         si.is_mem && !si.is_store, mispredicted_now,
                         rob_occ);
        }

        if (++rob_idx == c.rob_size)
            rob_idx = 0;
        if (++cw_idx == c.width)
            cw_idx = 0;
    }

    st.instructions = i;
    st.cycles = last_cycle - base;
    clock = last_cycle;

    // Report the region of interest only; timing state (caches,
    // predictors, in-flight misses) carried across the boundary.
    if (warmup_insts && i > warmup_insts)
        return st.since(warm, cfg_.invariant_checks);
    return st;
}

uint64_t
OooCore::fastForward(CpuState &state, uint64_t max_insts, Cycle &clock,
                     bool warm)
{
    if (!warm)
        return vrsim::fastForward(prog_, state, image_, max_insts,
                                  digest_);

    // Functional warming: the architectural stream drives the same
    // structures the fetch/commit path would touch — L1I tags (with
    // the same-line memo and next-line prefetch of the detailed
    // path), the branch predictor (predict-then-update, as predict()
    // latches state update() consumes), the BTB, and the data-cache
    // tags via MemoryHierarchy::warmAccess — without any port, MSHR,
    // DRAM, or statistics traffic. The clock ticks once per
    // instruction so LRU recency established here stays ordered
    // against the surrounding detailed windows.
    uint64_t n = 0;
    uint64_t last_iline = UINT64_MAX;
    for (; n < max_insts && !state.halted; ++n) {
        StepInfo si = step(prog_, state, image_);
        ++clock;
        uint64_t iline = l1i_.lineAddr(uint64_t(si.pc) * 4);
        if (iline != last_iline) {
            if (!l1i_.lookup(iline, clock))
                l1i_.insert(iline, clock, clock, Requester::Demand);
            if (!l1i_.peek(iline + 1))
                l1i_.insert(iline + 1, clock, clock,
                            Requester::StridePf);
            last_iline = iline;
        }
        if (si.is_branch) {
            if (si.inst->isCondBranch()) {
                bp_.predict(pcKey(si.pc));
                bp_.update(pcKey(si.pc), si.taken);
            }
            if (si.taken && !btb_.hit(pcKey(si.pc)))
                btb_.install(pcKey(si.pc), si.next_pc);
        }
        if (si.is_mem && si.size != 0)
            hier_.warmAccess(si.addr, pcKey(si.pc), clock, si.is_store);
        if (digest_)
            digest_->retire(commitRecordOf(si));
    }
    return n;
}

} // namespace vrsim
