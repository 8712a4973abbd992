/**
 * @file
 * Vector Runahead (Naithani et al., ISCA 2021), the headline
 * technique: triggered on a full-ROB stall, it scans the future
 * instruction stream for a striding load (via the stride detector),
 * speculatively vectorizes its forward dependence chain over 128
 * future loop iterations (16 AVX-512-style gathers), and issues all
 * lanes' memory accesses. Runahead only terminates once the whole
 * chain's accesses have been generated (delayed termination), which
 * can stall commit past the blocking load's return.
 */

#ifndef VRSIM_RUNAHEAD_VECTOR_RUNAHEAD_HH
#define VRSIM_RUNAHEAD_VECTOR_RUNAHEAD_HH

#include <cstdint>

#include "core/engine.hh"
#include "mem/stride_rpt.hh"
#include "obs/stat_table.hh"
#include "runahead/lane_executor.hh"
#include "sim/config.hh"

namespace vrsim
{

/** Statistics of the VR engine, reported under "vr." paths. */
struct VrStats : StatRecord<VrStats>
{
    uint64_t triggers = 0;
    uint64_t vectorizations = 0;
    uint64_t lanes_spawned = 0;
    uint64_t prefetches = 0;
    uint64_t lanes_invalidated = 0;
    uint64_t delayed_term_cycles = 0;

    static constexpr std::tuple fields{
        stat("triggers", "vr.triggers", "full-window stalls VR saw",
             &VrStats::triggers),
        stat("vectorizations", "vr.vectorizations",
             "stalls where a striding load was vectorized",
             &VrStats::vectorizations),
        stat("lanes_spawned", "vr.lanes", "vector lanes spawned",
             &VrStats::lanes_spawned),
        stat("prefetches", "vr.prefetches", "prefetches issued by VR lanes",
             &VrStats::prefetches),
        stat("lanes_invalidated", "vr.lanes_invalidated",
             "control-divergent lanes invalidated",
             &VrStats::lanes_invalidated),
        stat("delayed_term_cycles", nullptr,
             "commit cycles stalled past the head fill",
             &VrStats::delayed_term_cycles),
    };
};
static_assert(statTableBytes<VrStats>() == sizeof(VrStats));

/** The Vector Runahead engine. */
class VectorRunahead : public RunaheadEngine
{
  public:
    VectorRunahead(const SystemConfig &cfg, const Program &prog,
                   MemoryImage &image, MemoryHierarchy &hier)
        : cfg_(cfg), prog_(prog), image_(image),
          rpt_(cfg.runahead.stride_entries,
               uint8_t(cfg.runahead.stride_confidence)),
          executor_(cfg_.runahead, prog, image, hier,
                    cfg.invariant_checks)
    {
        cfg_.validate(false);
        rpt_.reset();
    }

    void onInstruction(const StepInfo &si, const CpuState &after,
                       Cycle cycle) override;

    Cycle onFullRobStall(Cycle stall_start, Cycle head_fill,
                         const CpuState &frontier,
                         TriggerKind kind) override;

    const char *name() const override { return "VR"; }

    void
    setTraceSink(TraceSink *sink) override
    {
        RunaheadEngine::setTraceSink(sink);
        executor_.setTraceSink(sink);
    }

    const VrStats &stats() const { return stats_; }

  private:
    const SystemConfig &cfg_;
    const Program &prog_;
    MemoryImage &image_;
    StrideRpt rpt_;
    LaneExecutor executor_;
    VrStats stats_;
};

} // namespace vrsim

#endif // VRSIM_RUNAHEAD_VECTOR_RUNAHEAD_HH
