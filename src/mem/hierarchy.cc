#include "mem/hierarchy.hh"

#include "mem/imp.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"

namespace vrsim
{

namespace
{

/**
 * Guardrail on every simulation path: the hierarchy is built before
 * the core and the engines, so a degenerate sweep point fails here
 * with the full diagnostic (including warnings). Validation must run
 * before the member initializers — a zero-capacity MSHR bank would
 * otherwise panic() inside IntervalResource instead of fatal()ing
 * with the offending parameter name.
 */
const SystemConfig &
validated(const SystemConfig &cfg)
{
    cfg.validate(true);
    return cfg;
}

} // namespace

MemoryHierarchy::MemoryHierarchy(const SystemConfig &cfg,
                                 MemoryImage &image)
    : cfg_(validated(cfg)), image_(image),
      l1d_("l1d", cfg.l1d),
      l2_("l2", cfg.l2),
      l3_("l3", cfg.l3),
      l1_ports_(cfg.l1d.ports, 0),
      l1_mshrs_(cfg.l1d.mshrs),
      l2_mshrs_(cfg.l2.mshrs),
      l3_mshrs_(cfg.l3.mshrs),
      dram_(cfg.dram, cfg.l1d.line_bytes),
      stride_rpt_(cfg.stride_pf.streams, cfg.stride_pf.train_threshold)
{
    stride_rpt_.reset();
}

MemoryHierarchy::~MemoryHierarchy() = default;

void
MemoryHierarchy::enableImp()
{
    imp_ = std::make_unique<ImpPrefetcher>(cfg_.imp, *this, image_);
}

bool
MemoryHierarchy::inL1(uint64_t addr) const
{
    return l1d_.peek(l1d_.lineAddr(addr)) != nullptr;
}

void
MemStats::registerIn(StatsRegistry &reg, double mlp) const
{
    StatRecord::registerIn(reg);
    // Captured by value so the formula is self-contained (the raw
    // latency sum is not itself a reported column).
    const uint64_t acc = demand_accesses;
    const uint64_t lat = demand_latency_sum;
    reg.addFormula(
        "mem.mean_load_latency",
        [acc, lat](const StatsRegistry &) {
            return acc ? double(lat) / double(acc) : 0.0;
        },
        "mean demand access latency in cycles");
    reg.addCounter("mem.dram_total", "DRAM line fills, all requesters")
        += dramTotal();
    reg.addCounter("mem.dram_main",
                   "DRAM fills from the main thread "
                   "(demand + stride pf + IMP)") += dramMain();
    reg.addCounter("mem.dram_runahead",
                   "DRAM fills from runahead prefetching") +=
        dramRunahead();
    reg.addGauge("mem.mlp", "mean L1D MSHRs busy per cycle") = mlp;
}

AccessResult
MemoryHierarchy::access(uint64_t addr, uint64_t pc, Cycle cycle,
                        bool is_store, Requester who)
{
    AccessResult res = accessInternal(addr, cycle, is_store, who);

    if (tsink_ && tsink_->enabled(TraceCat::Mem))
        tsink_->mem(cycle, addr, pc, hitLevelName(res.level),
                    res.latency, requesterName(who), is_store,
                    l1_mshrs_.busyAt(cycle), res.mshr_stalled);

    if (who == Requester::Demand) {
        ++stats_.demand_accesses;
        stats_.demand_latency_sum += res.latency;
        switch (res.level) {
          case HitLevel::L1: ++stats_.demand_l1_hits; break;
          case HitLevel::L2: ++stats_.demand_l2_hits; break;
          case HitLevel::L3: ++stats_.demand_l3_hits; break;
          case HitLevel::Memory: ++stats_.demand_mem; break;
        }
        // Train the always-on stride prefetcher on demand loads.
        if (!is_store && cfg_.stride_pf.enabled && pc != 0)
            runStridePrefetcher(pc, addr, cycle);
        // IMP observes the architectural value of demand loads.
        if (!is_store && imp_ && pc != 0) {
            uint64_t value = image_.read64(addr);
            imp_->observe(pc, addr, value, 8, cycle);
        }
    }
    return res;
}

void
MemoryHierarchy::warmAccess(uint64_t addr, uint64_t pc, Cycle cycle,
                            bool is_store)
{
    const uint64_t line = l1d_.lineAddr(addr);
    // Mirror the fill path of accessInternal() — L3 then L2 on the
    // return path, inclusive back-invalidation on L3 eviction — with
    // the fill complete immediately. lookup() refreshes LRU recency
    // on hits, which is the whole point of warming.
    if (!l1d_.lookup(line, cycle)) {
        if (!l2_.lookup(line, cycle)) {
            if (!l3_.lookup(line, cycle)) {
                auto ev3 = l3_.insert(line, cycle, cycle,
                                      Requester::Demand);
                if (ev3) {
                    l2_.invalidate(ev3->tag);
                    l1d_.invalidate(ev3->tag);
                }
            }
            l2_.insert(line, cycle, cycle, Requester::Demand);
        }
        l1d_.insert(line, cycle, cycle, Requester::Demand);
    }
    // Keep the stride RPT's PC history continuous across fast-forward
    // so the detailed window's prefetcher starts trained; the
    // prefetch fills themselves are not issued (no timing to hide).
    if (!is_store && cfg_.stride_pf.enabled && pc != 0)
        stride_rpt_.train(pc, addr);
    // Same for IMP: its stream/candidate/pattern tables train on the
    // architectural values of demand loads, and its prefetched lines
    // warm tags through this same path (observe's warm mode). A cold
    // IMP measures too fast — fewer resident harmful prefetches.
    // pc == 0 cannot recurse: warm-mode prefetch fills come back in
    // here with pc 0 and stop at the guards above.
    if (!is_store && imp_ && pc != 0)
        imp_->observe(pc, addr, image_.read64(addr), 8, cycle, true);
}

AccessResult
MemoryHierarchy::accessInternal(uint64_t addr, Cycle cycle, bool is_store,
                                Requester who)
{
    AccessResult res;
    const uint64_t line = l1d_.lineAddr(addr);
    const bool demand = (who == Requester::Demand);

    // L1 access ports: demand and runahead accesses contend for the
    // same `ports`-per-cycle acceptance bandwidth.
    cycle = l1_ports_.allocate(cycle, 1);
    Cycle t = cycle + cfg_.l1d.latency;

    if (CacheArray::Line *l1 = l1d_.lookup(line, cycle)) {
        Cycle ready = std::max(t, l1->fill_time);
        res.latency = ready - cycle;
        res.level = HitLevel::L1;
        res.mshr_merged = l1->fill_time > t;
        // Timeliness accounting: first demand use of a runahead-
        // prefetched line.
        if (demand && l1->origin == Requester::Runahead &&
            !l1->used_since_fill) {
            if (l1->fill_time > t)
                ++stats_.pf_used_inflight;
            else
                ++stats_.pf_used_l1;
        }
        if (demand)
            l1->used_since_fill = true;
        return res;
    }

    // L1 miss: needs an L1 MSHR for the duration of the fill. We
    // compute the fill path first, then allocate the MSHR over it.
    Cycle l2_probe = t + cfg_.l2.latency;
    Cycle fill_time = 0;

    if (CacheArray::Line *l2 = l2_.lookup(line, cycle)) {
        Cycle ready = std::max(l2_probe, l2->fill_time);
        res.level = HitLevel::L2;
        if (demand && l2->origin == Requester::Runahead &&
            !l2->used_since_fill) {
            if (l2->fill_time > l2_probe)
                ++stats_.pf_used_inflight;
            else
                ++stats_.pf_used_l2;
        }
        if (demand)
            l2->used_since_fill = true;
        fill_time = ready;
    } else {
        Cycle l3_probe = l2_probe + cfg_.l3.latency;
        if (CacheArray::Line *l3 = l3_.lookup(line, cycle)) {
            Cycle ready = std::max(l3_probe, l3->fill_time);
            res.level = HitLevel::L3;
            if (demand && l3->origin == Requester::Runahead &&
                !l3->used_since_fill) {
                if (l3->fill_time > l3_probe)
                    ++stats_.pf_used_inflight;
                else
                    ++stats_.pf_used_l3;
            }
            if (demand)
                l3->used_since_fill = true;
            fill_time = ready;
        } else {
            // Full miss to DRAM. L3 MSHR covers the DRAM access.
            Cycle fill;
            Cycle issue = l3_mshrs_.allocate(l3_probe,
                                             cfg_.dram.latency, fill);
            Cycle done = dram_.access(issue);
            fill_time = std::max(fill, done);
            res.level = HitLevel::Memory;
            ++stats_.dram_by_requester[size_t(who)];
            // Fill L3 (inclusive); back-invalidate nothing yet.
            auto ev3 = l3_.insert(line, cycle, fill_time, who);
            if (ev3) {
                // Inclusive hierarchy: L3 eviction back-invalidates.
                l2_.invalidate(ev3->tag);
                l1d_.invalidate(ev3->tag);
            }
        }
        // Fill L2 on the return path.
        Cycle l2_fill;
        l2_mshrs_.allocate(l2_probe, fill_time - l2_probe, l2_fill);
        l2_.insert(line, cycle, fill_time, who);
    }

    // Allocate the L1 MSHR from the miss detection until the fill. A
    // full bank delays the fill (the request waits for a register).
    Cycle mshr_fill;
    Cycle issue = l1_mshrs_.allocate(t, fill_time - t, mshr_fill);
    if (issue > t) {
        res.mshr_stalled = true;
        fill_time = mshr_fill;
    }

    l1d_.insert(line, cycle, fill_time, who);
    if (who == Requester::Runahead)
        ++stats_.pf_lines_filled;

    res.latency = fill_time - cycle;
    (void)is_store;
    return res;
}

void
MemoryHierarchy::runStridePrefetcher(uint64_t pc, uint64_t addr,
                                     Cycle cycle)
{
    stride_rpt_.train(pc, addr);
    const RptEntry *e = stride_rpt_.predict(pc);
    if (!e)
        return;
    uint64_t cur_line = l1d_.lineAddr(addr);
    for (uint32_t k = 1; k <= cfg_.stride_pf.degree; k++) {
        uint64_t target =
            uint64_t(int64_t(addr) + e->stride * int64_t(k));
        uint64_t target_line = l1d_.lineAddr(target);
        if (target_line == cur_line)
            continue;
        if (l1d_.peek(target_line))
            continue;
        accessInternal(target, cycle, false, Requester::StridePf);
    }
}

} // namespace vrsim
