#include "runahead/dvr.hh"

#include <algorithm>

#include "obs/stats_registry.hh"
#include "sim/digest.hh"

namespace vrsim
{

void
DvrStats::registerIn(StatsRegistry &reg) const
{
    StatRecord::registerIn(reg);
    reg.addFormula(
        "dvr.mean_lanes",
        [](const StatsRegistry &r) {
            double s = r.value("dvr.spawns");
            return s ? r.value("dvr.lanes") / s : 0.0;
        },
        "mean lanes per subthread invocation");
}

DecoupledVectorRunahead::DecoupledVectorRunahead(
    const SystemConfig &cfg, const Program &prog, MemoryImage &image,
    MemoryHierarchy &hier, DvrFeatures features)
    : cfg_(cfg), prog_(prog), image_(image), hier_(hier),
      features_(features),
      rpt_(cfg.runahead.stride_entries,
           uint8_t(cfg.runahead.stride_confidence)),
      executor_(cfg_.runahead, prog, image, hier,
                cfg.invariant_checks),
      vrat_(cfg.core.int_phys_regs / 2, cfg.core.vec_phys_regs,
            cfg.runahead.vector_regs)
{
    cfg_.validate(false);
    rpt_.reset();
}

void
DecoupledVectorRunahead::onInstruction(const StepInfo &si,
                                       const CpuState &after,
                                       Cycle cycle)
{
    if (si.is_mem && !si.is_store && !si.inst->isPrefetch())
        rpt_.train(si.pc, si.addr);

    switch (mode_) {
      case Mode::Idle:
        maybeStartDiscovery(si, after, cycle);
        break;
      case Mode::Discovery:
        discoveryStep(si, after, cycle);
        break;
    }
}

void
DecoupledVectorRunahead::maybeStartDiscovery(const StepInfo &si,
                                             const CpuState &after,
                                             Cycle cycle)
{
    if (!si.is_mem || si.is_store || si.inst->isPrefetch())
        return;
    if (cycle < busy_until_)
        return;   // the subthread context is occupied
    const RptEntry *e = rpt_.predict(si.pc);
    if (!e)
        return;

    if (!features_.discovery) {
        // Fig. 8 "Offload": trigger a VR-style subthread immediately,
        // with the full 128 lanes and no chain/bound analysis.
        target_pc_ = si.pc;
        spawn(si, after, cycle);
        return;
    }

    ++stats_.discoveries;
    startDiscovery(si, after);
}

void
DecoupledVectorRunahead::startDiscovery(const StepInfo &si,
                                        const CpuState &after)
{
    mode_ = Mode::Discovery;
    target_pc_ = si.pc;
    vtt_.init(si.inst->rd);
    lbd_.enter(after, si.pc);
    stride_seen_.clear();
    stride_seen_.insert(si.pc);
    discovery_insts_ = 0;
    saw_other_branch_ = false;
}

void
DecoupledVectorRunahead::discoveryStep(const StepInfo &si,
                                       const CpuState &after,
                                       Cycle cycle)
{
    if (++discovery_insts_ > cfg_.runahead.discovery_max_insts) {
        ++stats_.discovery_aborts;
        mode_ = Mode::Idle;
        return;
    }

    const Inst &inst = *si.inst;

    if (si.is_mem && !si.is_store) {
        if (si.pc == target_pc_) {
            // Reached the striding load again: Discovery complete;
            // the subthread spawns right here (§4.2).
            mode_ = Mode::Idle;
            spawn(si, after, cycle);
            return;
        }
        if (rpt_.predict(si.pc)) {
            if (stride_seen_.count(si.pc)) {
                // Seen the same stride pc twice before the target
                // recurred: it belongs to a more inner loop. Switch
                // Discovery to it (§4.1.1).
                ++stats_.innermost_switches;
                if (RptEntry *re = rpt_.find(si.pc))
                    re->innermost = true;
                startDiscovery(si, after);
                return;
            }
            stride_seen_.insert(si.pc);
        }
        // Dependent-load check: a load whose address registers are
        // tainted updates the FLR (§4.1.2).
        if (vtt_.isTainted(inst.rs1) || vtt_.isTainted(inst.rs2))
            lbd_.finalLoadSeen(si.pc);
    }

    vtt_.propagate(inst);

    if (inst.isCompare()) {
        lbd_.compareSeen(si.pc, inst);
    } else if (si.is_branch && inst.isCondBranch()) {
        bool sbb_before = lbd_.sbbSet();
        lbd_.branchSeen(si.pc, inst, uint32_t(inst.imm));
        // Footnote 1: other branches between FLR and the loop branch
        // mean lanes must explore the full iteration, not stop at FLR.
        if (lbd_.flr() != 0 && sbb_before == lbd_.sbbSet())
            saw_other_branch_ = true;
    }
}

uint64_t
DecoupledVectorRunahead::laneStartIndex(uint32_t pc, uint64_t cur_addr,
                                        int64_t stride) const
{
    auto it = next_addr_.find(pc);
    if (it == next_addr_.end() || stride == 0)
        return 1;
    int64_t diff = int64_t(it->second) - int64_t(cur_addr);
    int64_t k = diff / stride;
    if (k < 1 || k > int64_t(4 * MAX_LANES))
        return 1;
    return uint64_t(k);
}

void
DecoupledVectorRunahead::spawn(const StepInfo &si, const CpuState &after,
                               Cycle cycle)
{
    const RptEntry *entry = rpt_.predict(target_pc_);
    if (!entry)
        return;
    const uint64_t pf_before = stats_.prefetches;
    const int64_t stride = entry->stride;
    const uint32_t flr = features_.discovery ? lbd_.flr() : 0;

    if (features_.discovery && flr == 0) {
        // No dependent-load chain: the plain stride prefetcher
        // already covers this loop; DVR is not worth triggering.
        ++stats_.discovery_aborts;
        return;
    }

    uint64_t lanes_target = cfg_.runahead.max_lanes();
    std::optional<uint64_t> remaining;
    LoopBoundInfo info;
    if (features_.discovery) {
        info = lbd_.infer(after);
        remaining = LoopBoundDetector::remainingIterations(info, after);
        if (remaining) {
            if (*remaining < lanes_target) {
                lanes_target = *remaining;
                ++stats_.bound_limited;
            }
            if (features_.nested &&
                *remaining < cfg_.runahead.nested_trigger_lanes) {
                spawnNested(si, after, cycle, info, *remaining);
                return;
            }
        }
    }

    // Skip iterations already prefetched by earlier invocations.
    uint64_t k0 = laneStartIndex(target_pc_, si.addr, stride);
    if (k0 > lanes_target) {
        ++stats_.dedupe_skips;
        return;
    }
    // 1 <= k0 <= lanes_target here, so at least one lane remains.
    uint64_t lanes_n =
        std::min<uint64_t>(lanes_target - (k0 - 1),
                           cfg_.runahead.max_lanes());

    // Seed the lanes: vector gathers for the striding load.
    std::vector<Lane> lanes(lanes_n);
    const Cycle chain_start =
        executor_.seed(lanes, after, si, stride, k0, cycle + 1);
    stats_.prefetches += lanes_n;
    // Advance the induction register to each lane's iteration so
    // non-chain address math stays consistent: lane j's address is
    // k0 + j stride steps ahead of the current iteration. This follows
    // the load's destination write, so it wins if both name one
    // register.
    if (info.valid && info.induction_reg != REG_NONE) {
        for (uint64_t j = 0; j < lanes_n; j++)
            lanes[j].ctx.regs[info.induction_reg] =
                after.regs[info.induction_reg] +
                uint64_t(info.increment) * (k0 + j);
    }
    next_addr_[target_pc_] =
        uint64_t(int64_t(si.addr) + stride * int64_t(k0 + lanes_n));

    vrat_.reset();
    if (si.inst->writesDst())
        vrat_.vectorizeDst(si.inst->rd);
    launch(lanes, target_pc_, flr, "stride", cycle, chain_start,
           pf_before, &vrat_);
}

void
DecoupledVectorRunahead::launch(std::vector<Lane> &lanes,
                                uint32_t stride_pc, uint32_t flr,
                                const char *kind, Cycle cycle, Cycle start,
                                uint64_t pf_before, Vrat *vrat)
{
    ++stats_.spawns;
    stats_.lanes_spawned += lanes.size();
    traceRunahead(cycle, "enter", kind, stride_pc, lanes.size(), 0);
    LaneRunStats lr = executor_.run(lanes, stride_pc, flr,
                                    !saw_other_branch_,
                                    features_.reconverge, start, vrat);
    stats_.prefetches += lr.prefetches;
    stats_.divergences += lr.divergences;
    busy_until_ = lr.end_time;
    traceRunahead(busy_until_, "exit", kind, stride_pc, lanes.size(),
                  stats_.prefetches - pf_before);
}

void
DecoupledVectorRunahead::spawnNested(const StepInfo &si,
                                     const CpuState &after, Cycle cycle,
                                     const LoopBoundInfo &info,
                                     uint64_t remaining)
{
    const uint32_t ilr_pc = target_pc_;   // Inner Load Register
    const RptEntry *inner = rpt_.predict(ilr_pc);
    if (!inner || info.branch_pc == 0) {
        ++stats_.ndm_fallbacks;
        return;
    }
    const uint64_t pf_before = stats_.prefetches;
    const int64_t istride = inner->stride;

    // NDM and both vectorization steps below are transient subthread
    // execution: the guard makes any commit recorded inside them
    // panic (see sim/digest.hh).
    ScopedSpeculation spec;

    // NDM: run the in-order subthread down the branch's not-taken
    // path, skipping the remaining inner-loop iterations (§4.3.1).
    CpuState ndm = after;
    ndm.pc = info.branch_pc + 1;
    // All NDM/outer/inner-lane accesses below issue at >= cycle, the
    // triggering stall's dispatch point: the calendar-horizon floor
    // (docs/performance.md) that lets the cycle-skipping calendars
    // retire history behind the core.
    Cycle t = cycle + 1;
    const Inst *outer_inst = nullptr;
    uint64_t outer_addr = 0;
    int64_t ostride = 0;
    for (uint32_t n = 0; n < cfg_.runahead.subthread_timeout &&
                         !ndm.halted; n++) {
        StepInfo s = step(prog_, ndm, image_, true);
        ++t;
        if (s.is_mem && !s.is_store) {
            AccessResult res = hier_.access(s.addr, 0, t, false,
                                            Requester::Runahead);
            ++stats_.prefetches;
            // The NDM subthread is in-order and scalar: it waits for
            // each of its own loads (these are loop-header values the
            // main thread touched recently, so they are usually
            // L1-resident).
            t += res.latency;
            const RptEntry *oe = rpt_.predict(s.pc);
            if (oe && s.pc < ilr_pc) {
                outer_inst = s.inst;
                outer_addr = s.addr;
                ostride = oe->stride;
                break;
            }
        }
    }

    if (!outer_inst) {
        // No outer striding load in range: fall back to vectorizing
        // the inner loop by the detected bound alone.
        ++stats_.ndm_fallbacks;
        std::vector<Lane> lanes(std::min<uint64_t>(
            std::max<uint64_t>(remaining, 1), cfg_.runahead.max_lanes()));
        const Cycle chain_start =
            executor_.seed(lanes, after, si, istride, 1, cycle + 1);
        stats_.prefetches += lanes.size();
        launch(lanes, ilr_pc, lbd_.flr(), "stride", cycle, chain_start,
               pf_before);
        return;
    }

    // First vectorization step: 16 outer lanes (§4.3.1), each walked
    // forward to the first iteration of the inner striding load.
    const uint32_t outer_lanes = cfg_.runahead.vector_regs;
    struct OuterLane
    {
        CpuState ctx;
        Cycle ready = 0;
        uint64_t inner_start = 0;
        uint64_t inner_iters = 0;
        bool ok = false;
    };
    std::vector<OuterLane> outers(outer_lanes);
    for (uint32_t k = 0; k < outer_lanes; k++) {
        OuterLane &ol = outers[k];
        ol.ctx = ndm;
        uint64_t addr = uint64_t(int64_t(outer_addr) +
                                 ostride * int64_t(k + 1));
        AccessResult res = hier_.access(addr, 0, t + k, false,
                                        Requester::Runahead);
        ++stats_.prefetches;
        ol.ready = t + k + res.latency;
        uint64_t v = outer_inst->op == Op::Ld32 ? image_.read32(addr)
                                                : image_.read64(addr);
        if (outer_inst->writesDst())
            ol.ctx.setReg(outer_inst->rd, v);

        // Walk the dependents of the outer load to the inner stride.
        for (uint32_t n = 0; n < cfg_.runahead.subthread_timeout &&
                             !ol.ctx.halted; n++) {
            if (ol.ctx.pc == ilr_pc) {
                const Inst &iload = prog_.at(ilr_pc);
                auto rd = [&](uint8_t r) { return ol.ctx.reg(r); };
                ol.inner_start = effectiveAddress(iload, rd);
                // Per-lane loop bound via the LCR registers (§4.3.1).
                ol.inner_iters =
                    LoopBoundDetector::remainingIterations(info, ol.ctx)
                        .value_or(0);
                ol.ok = ol.inner_iters > 0;
                break;
            }
            StepInfo s = step(prog_, ol.ctx, image_, true);
            if (s.is_mem && !s.is_store) {
                Cycle issue = std::max(t, ol.ready);
                AccessResult res2 = hier_.access(s.addr, 0, issue,
                                                 false,
                                                 Requester::Runahead);
                ++stats_.prefetches;
                ol.ready = issue + res2.latency;
            }
        }
    }

    // Second step (§4.3.2): collect up to 128 inner iterations across
    // the outer lanes and vectorize the inner chain over all of them.
    const Inst &iload = prog_.at(ilr_pc);
    std::vector<Lane> lanes;
    lanes.reserve(cfg_.runahead.max_lanes());
    Cycle t2 = t;
    for (const OuterLane &ol : outers) {
        if (!ol.ok)
            continue;
        for (uint64_t m = 0; m < ol.inner_iters &&
                             lanes.size() < cfg_.runahead.max_lanes();
             m++) {
            Lane lane;
            lane.ctx = ol.ctx;
            lane.ctx.pc = ilr_pc + 1;
            uint64_t addr = uint64_t(int64_t(ol.inner_start) +
                                     istride * int64_t(m));
            Cycle issue = std::max(t2++, ol.ready);
            AccessResult res = hier_.access(addr, 0, issue, false,
                                            Requester::Runahead);
            ++stats_.prefetches;
            lane.ready = issue + res.latency;
            uint64_t v = iload.op == Op::Ld32 ? image_.read32(addr)
                                              : image_.read64(addr);
            if (iload.writesDst())
                lane.ctx.setReg(iload.rd, v);
            lane.ctx.regs[info.induction_reg] =
                ol.ctx.regs[info.induction_reg] +
                uint64_t(info.increment) * m;
            lanes.push_back(lane);
        }
        if (lanes.size() >= cfg_.runahead.max_lanes())
            break;
    }

    if (lanes.empty()) {
        ++stats_.ndm_fallbacks;
        return;
    }

    ++stats_.nested_spawns;
    launch(lanes, ilr_pc, lbd_.flr(), "nested", cycle, t2, pf_before);
}

} // namespace vrsim
