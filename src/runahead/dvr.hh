/**
 * @file
 * Decoupled Vector Runahead (the supplied paper's contribution):
 * Vector Runahead offloaded to an always-available, in-order,
 * speculative subthread that triggers on stride detection rather than
 * full-ROB stalls, extended with Discovery Mode (innermost stride
 * selection, dependent-load checking, loop-bound inference), GPU-style
 * branch divergence/reconvergence across the vector lanes, and Nested
 * Vector Runahead for short inner loops (§4 of the paper).
 */

#ifndef VRSIM_RUNAHEAD_DVR_HH
#define VRSIM_RUNAHEAD_DVR_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "core/engine.hh"
#include "mem/stride_rpt.hh"
#include "obs/stat_table.hh"
#include "runahead/lane_executor.hh"
#include "runahead/loop_bound.hh"
#include "runahead/taint_tracker.hh"
#include "runahead/vrat.hh"
#include "sim/config.hh"

namespace vrsim
{

/** Feature toggles reproducing Fig. 8's breakdown steps. */
struct DvrFeatures
{
    bool discovery = true;   //!< Discovery Mode (step 3)
    bool nested = true;      //!< Nested Vector Runahead (step 4)
    bool reconverge = true;  //!< SIMT divergence handling

    static DvrFeatures offloadOnly()
    { return {false, false, false}; }
    static DvrFeatures withDiscovery()
    { return {true, false, true}; }
    static DvrFeatures full()
    { return {true, true, true}; }
};

/** Statistics of the DVR engine, reported under "dvr." paths. */
struct DvrStats : StatRecord<DvrStats>
{
    uint64_t discoveries = 0;
    uint64_t discovery_aborts = 0;
    uint64_t innermost_switches = 0;
    uint64_t spawns = 0;
    uint64_t nested_spawns = 0;
    uint64_t ndm_fallbacks = 0;
    uint64_t lanes_spawned = 0;
    uint64_t prefetches = 0;
    uint64_t divergences = 0;
    uint64_t bound_limited = 0;
    uint64_t dedupe_skips = 0;

    static constexpr std::tuple fields{
        stat("discoveries", "dvr.discoveries", "Discovery Mode entries",
             &DvrStats::discoveries),
        stat("discovery_aborts", "dvr.discovery_aborts",
             "discoveries abandoned (no chain / timeout)",
             &DvrStats::discovery_aborts),
        stat("innermost_switches", "dvr.innermost_switches",
             "Discovery retargets to an inner stride",
             &DvrStats::innermost_switches),
        stat("spawns", "dvr.spawns", "vector subthread invocations",
             &DvrStats::spawns),
        stat("nested_spawns", "dvr.nested_spawns",
             "NDM-expanded subthread invocations", &DvrStats::nested_spawns),
        stat("ndm_fallbacks", nullptr, "NDM found no outer stride",
             &DvrStats::ndm_fallbacks),
        stat("lanes_spawned", "dvr.lanes", "vector lanes spawned",
             &DvrStats::lanes_spawned),
        stat("prefetches", "dvr.prefetches", "prefetches issued by DVR",
             &DvrStats::prefetches),
        stat("divergences", "dvr.divergences", "SIMT lane divergence events",
             &DvrStats::divergences),
        stat("bound_limited", "dvr.bound_limited",
             "spawns clipped by the inferred loop bound",
             &DvrStats::bound_limited),
        stat("dedupe_skips", "dvr.dedupe_skips",
             "spawns skipped as already covered", &DvrStats::dedupe_skips),
    };

    double
    meanLanes() const
    {
        return spawns ? double(lanes_spawned) / double(spawns) : 0.0;
    }

    /** Register the counters plus the dvr.mean_lanes formula. */
    void registerIn(StatsRegistry &reg) const;
};
static_assert(statTableBytes<DvrStats>() == sizeof(DvrStats));

/** The Decoupled Vector Runahead engine. */
class DecoupledVectorRunahead : public RunaheadEngine
{
  public:
    DecoupledVectorRunahead(const SystemConfig &cfg, const Program &prog,
                            MemoryImage &image, MemoryHierarchy &hier,
                            DvrFeatures features = DvrFeatures::full());

    void onInstruction(const StepInfo &si, const CpuState &after,
                       Cycle cycle) override;

    // DVR never delays the main thread: the subthread is decoupled.
    Cycle
    onFullRobStall(Cycle, Cycle head_fill, const CpuState &,
                   TriggerKind) override
    {
        return head_fill;
    }

    const char *name() const override { return "DVR"; }

    void
    setTraceSink(TraceSink *sink) override
    {
        RunaheadEngine::setTraceSink(sink);
        executor_.setTraceSink(sink);
    }

    const DvrStats &stats() const { return stats_; }

  private:
    enum class Mode { Idle, Discovery };

    void maybeStartDiscovery(const StepInfo &si, const CpuState &after,
                             Cycle cycle);
    /** Enter (or restart) Discovery Mode at striding load @p si. */
    void startDiscovery(const StepInfo &si, const CpuState &after);
    void discoveryStep(const StepInfo &si, const CpuState &after,
                       Cycle cycle);

    /** Spawn the vector subthread at the striding load. */
    void spawn(const StepInfo &si, const CpuState &after, Cycle cycle);

    /**
     * Run seeded @p lanes as one subthread invocation from @p start:
     * count the spawn, trace its enter/exit episode under @p kind
     * (with prefetches counted since @p pf_before) and keep the
     * subthread busy until the last lane access. Lanes stop at the FLR
     * unless Discovery saw another branch. Only the stride spawn
     * passes the VRAT, so only it models vector-register pressure.
     */
    void launch(std::vector<Lane> &lanes, uint32_t stride_pc,
                uint32_t flr, const char *kind, Cycle cycle, Cycle start,
                uint64_t pf_before, Vrat *vrat = nullptr);

    /**
     * Nested Discovery Mode + expanded vectorization (§4.3).
     * Precondition: @p info is a valid inference, i.e.
     * LoopBoundDetector::remainingIterations(info, after) returned
     * @p remaining.
     */
    void spawnNested(const StepInfo &si, const CpuState &after,
                     Cycle cycle, const LoopBoundInfo &info,
                     uint64_t remaining);

    /** First future iteration not yet covered by earlier spawns. */
    uint64_t laneStartIndex(uint32_t pc, uint64_t cur_addr,
                            int64_t stride) const;

    const SystemConfig &cfg_;
    const Program &prog_;
    MemoryImage &image_;
    MemoryHierarchy &hier_;
    DvrFeatures features_;

    StrideRpt rpt_;
    LaneExecutor executor_;
    Vrat vrat_;

    Mode mode_ = Mode::Idle;
    Cycle busy_until_ = 0;

    // Discovery Mode state.
    uint32_t target_pc_ = 0;
    TaintTracker vtt_;
    LoopBoundDetector lbd_;
    std::unordered_set<uint64_t> stride_seen_; //!< bit per RPT entry
    uint32_t discovery_insts_ = 0;
    bool saw_other_branch_ = false;

    // Skip-ahead dedupe: next unprefetched address per stride pc.
    std::unordered_map<uint32_t, uint64_t> next_addr_;

    DvrStats stats_;
};

} // namespace vrsim

#endif // VRSIM_RUNAHEAD_DVR_HH
