/**
 * @file
 * The three-level cache hierarchy with MSHRs, DRAM bandwidth model,
 * the always-on L1D stride prefetcher, the optional IMP, and the
 * accounting needed for the paper's accuracy/coverage/timeliness
 * figures.
 */

#ifndef VRSIM_MEM_HIERARCHY_HH
#define VRSIM_MEM_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <memory>

#include "isa/memory_image.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/interval_resource.hh"
#include "mem/request.hh"
#include "mem/stride_rpt.hh"
#include "obs/stat_table.hh"
#include "sim/config.hh"

namespace vrsim
{

class ImpPrefetcher;
class TraceSink;

/**
 * Aggregated memory-system statistics for one simulation run
 * (descriptions in `fields`): demand accesses by level serviced, DRAM
 * line fills by requester, and runahead-prefetch timeliness — where
 * the main thread found runahead-prefetched lines on first use
 * (Fig. 11).
 */
struct MemStats : StatRecord<MemStats>
{
    uint64_t demand_accesses = 0;
    uint64_t demand_l1_hits = 0;
    uint64_t demand_l2_hits = 0;
    uint64_t demand_l3_hits = 0;
    uint64_t demand_mem = 0;
    uint64_t demand_latency_sum = 0;
    StatVec dram_by_requester{};  //!< indexed by Requester
    uint64_t pf_lines_filled = 0;
    uint64_t pf_used_l1 = 0;
    uint64_t pf_used_l2 = 0;
    uint64_t pf_used_l3 = 0;
    uint64_t pf_used_inflight = 0;

    static constexpr std::tuple fields{
        stat("demand_accesses", "mem.demand_accesses",
             "timed demand loads+stores", &MemStats::demand_accesses),
        stat("demand_l1_hits", "mem.l1_hits",
             "demand accesses serviced by L1D", &MemStats::demand_l1_hits),
        stat("demand_l2_hits", "mem.l2_hits", "demand accesses serviced by L2",
             &MemStats::demand_l2_hits),
        stat("demand_l3_hits", "mem.l3_hits", "demand accesses serviced by L3",
             &MemStats::demand_l3_hits),
        stat("demand_mem", "mem.mem_accesses",
             "demand accesses serviced by DRAM", &MemStats::demand_mem),
        stat("demand_latency_sum", nullptr, "total demand latency cycles",
             &MemStats::demand_latency_sum),
        stat("dram_by_requester", "DRAM line fills by requester",
             &MemStats::dram_by_requester),
        stat("pf_lines_filled", "mem.pf_lines_filled",
             "runahead prefetch fills issued", &MemStats::pf_lines_filled),
        stat("pf_used_l1", "mem.pf_used_l1",
             "runahead-prefetched lines first used from L1",
             &MemStats::pf_used_l1),
        stat("pf_used_l2", "mem.pf_used_l2",
             "runahead-prefetched lines first used from L2",
             &MemStats::pf_used_l2),
        stat("pf_used_l3", "mem.pf_used_l3",
             "runahead-prefetched lines first used from L3",
             &MemStats::pf_used_l3),
        stat("pf_used_inflight", "mem.pf_used_inflight",
             "runahead-prefetched lines used while in transfer",
             &MemStats::pf_used_inflight),
    };

    uint64_t dramTotal() const
    {
        uint64_t t = 0;
        for (uint64_t v : dram_by_requester)
            t += v;
        return t;
    }

    /** DRAM accesses from the main thread (demand + stride pf + IMP). */
    uint64_t
    dramMain() const
    {
        return dram_by_requester[size_t(Requester::Demand)] +
               dram_by_requester[size_t(Requester::StridePf)] +
               dram_by_requester[size_t(Requester::Imp)];
    }

    /** DRAM accesses from runahead prefetching. */
    uint64_t
    dramRunahead() const
    {
        return dram_by_requester[size_t(Requester::Runahead)];
    }

    /**
     * Register the reported memory statistics under "mem." paths in
     * @p reg (docs/observability.md lists every path). @p mlp is the
     * run's mean-L1D-MSHRs-per-cycle value (computed by the driver,
     * which knows the cycle count).
     */
    void registerIn(StatsRegistry &reg, double mlp) const;
};
static_assert(statTableBytes<MemStats>() == sizeof(MemStats));

/**
 * Copyable snapshot of the hierarchy's warmable state: the three tag
 * arrays and the stride RPT. Deliberately excludes the calendar-backed
 * resources (ports, MSHRs, DRAM) — a checkpoint is only meaningful at
 * a quiesced window boundary, where no reservation is in flight (see
 * docs/sampling.md).
 */
struct MemWarmState
{
    CacheArray l1d;
    CacheArray l2;
    CacheArray l3;
    StrideRpt stride_rpt;
};

/**
 * Timing model of the memory system. Data values live in the
 * functional MemoryImage; the hierarchy answers "when is this byte
 * usable" and maintains all occupancy/traffic accounting.
 */
class MemoryHierarchy
{
  public:
    MemoryHierarchy(const SystemConfig &cfg, MemoryImage &image);
    ~MemoryHierarchy();

    /**
     * Perform one timed access.
     *
     * @param addr   byte address
     * @param pc     program counter of the memory instruction (trains
     *               the prefetchers; pass 0 for pc-less requests)
     * @param cycle  issue cycle
     * @param is_store true for stores (write-allocate)
     * @param who    requester class for accounting
     */
    AccessResult access(uint64_t addr, uint64_t pc, Cycle cycle,
                        bool is_store, Requester who);

    /**
     * Warmup-only access mode for functional fast-forward: install
     * @p addr's line through L1D/L2/L3 (inclusive, tags + LRU recency
     * only, fill complete at @p cycle) and train the stride RPT on
     * demand loads, touching no ports, MSHRs, DRAM bandwidth, or
     * statistics — timing and accounting are exactly as if the access
     * never happened, but the next detailed window starts against
     * warm tag state. @p cycle must be monotone with the detailed
     * windows' clock so LRU timestamps stay ordered.
     */
    void warmAccess(uint64_t addr, uint64_t pc, Cycle cycle,
                    bool is_store);

    /** Snapshot the warmable state (see MemWarmState). */
    MemWarmState
    warmSnapshot() const
    {
        return MemWarmState{l1d_, l2_, l3_, stride_rpt_};
    }

    /** Restore a warmSnapshot() taken from this hierarchy. */
    void
    warmRestore(const MemWarmState &s)
    {
        l1d_ = s.l1d;
        l2_ = s.l2;
        l3_ = s.l3;
        stride_rpt_ = s.stride_rpt;
    }

    /** Probe-only: would @p addr hit in L1D right now? */
    bool inL1(uint64_t addr) const;

    /** Line size in bytes. */
    uint32_t lineBytes() const { return l1d_.lineBytes(); }

    /** Average L1D MSHR occupancy per cycle over [0, cycles). */
    double
    mlp(Cycle cycles) const
    {
        return cycles ? double(l1_mshrs_.busyIntegral()) / double(cycles)
                      : 0.0;
    }

    /** L1D MSHR bank (for occupancy queries by the runahead engines). */
    const MshrBank &l1Mshrs() const { return l1_mshrs_; }

    /**
     * Release calendar history wholly before @p cycle across every
     * capacity-over-time resource (L1 ports, MSHR banks, DRAM
     * channel). Called periodically by the core with its dispatch
     * horizon: every future access — demand, store drain, stride/IMP
     * prefetch, or a runahead engine's — issues at or after the
     * dispatch point that triggers it, so nothing ever allocates
     * below the horizon (the calendars panic if that contract is
     * broken). See docs/performance.md.
     */
    void
    retireHistory(Cycle cycle)
    {
        l1_ports_.retireBefore(cycle);
        l1_mshrs_.retireBefore(cycle);
        l2_mshrs_.retireBefore(cycle);
        l3_mshrs_.retireBefore(cycle);
        dram_.retireBefore(cycle);
    }

    /** Total calendar buckets examined across the hierarchy's
     *  resources (bounded by the cycle-skip regression test). */
    uint64_t
    calendarProbes() const
    {
        return l1_ports_.probes() + l1_mshrs_.probes() +
               l2_mshrs_.probes() + l3_mshrs_.probes() +
               dram_.probes();
    }

    const MemStats &stats() const { return stats_; }

    /** Enable the IMP (constructed only for Technique::Imp). */
    void enableImp();

    /**
     * Attach a cycle-trace sink (obs/trace.hh): every timed access
     * emits one TraceCat::Mem event. nullptr (the default) detaches;
     * the only cost when detached is a null check per access.
     */
    void setTraceSink(TraceSink *sink) { tsink_ = sink; }

  private:
    friend class ImpPrefetcher;

    /**
     * The internal access path; @p train controls prefetcher training
     * so prefetch requests do not train the prefetchers on themselves.
     */
    AccessResult accessInternal(uint64_t addr, Cycle cycle, bool is_store,
                                Requester who);

    void runStridePrefetcher(uint64_t pc, uint64_t addr, Cycle cycle);

    SystemConfig cfg_;
    MemoryImage &image_;

    CacheArray l1d_;
    CacheArray l2_;
    CacheArray l3_;
    IntervalResource l1_ports_;  //!< L1D access ports: the main
                                 //!< thread and the runahead
                                 //!< subthread contend here (§4.2)
    MshrBank l1_mshrs_;
    MshrBank l2_mshrs_;
    MshrBank l3_mshrs_;
    DramModel dram_;

    StrideRpt stride_rpt_;
    std::unique_ptr<ImpPrefetcher> imp_;

    TraceSink *tsink_ = nullptr;

    MemStats stats_;
};

} // namespace vrsim

#endif // VRSIM_MEM_HIERARCHY_HH
