/**
 * @file
 * Precise Runahead Execution (Naithani et al., HPCA 2020), the
 * scalar-runahead baseline: on a full-ROB stall it uses the free
 * front-end bandwidth to pre-execute the future instruction stream for
 * the duration of the runahead interval (until the blocking load
 * returns), prefetching the loads whose operands become available
 * within the interval — which is why it cannot reach past the first
 * level of indirection.
 */

#ifndef VRSIM_RUNAHEAD_PRE_HH
#define VRSIM_RUNAHEAD_PRE_HH

#include <cstdint>

#include "core/engine.hh"
#include "isa/interp.hh"
#include "mem/hierarchy.hh"
#include "obs/stat_table.hh"
#include "sim/config.hh"

namespace vrsim
{

/** Statistics of the PRE engine, reported under "pre." paths. */
struct PreStats : StatRecord<PreStats>
{
    uint64_t intervals = 0;
    uint64_t insts_examined = 0;
    uint64_t prefetches = 0;
    uint64_t skipped_dependent = 0;

    static constexpr std::tuple fields{
        stat("intervals", "pre.intervals", "PRE runahead episodes",
             &PreStats::intervals),
        stat("insts_examined", nullptr, "future µops walked",
             &PreStats::insts_examined),
        stat("prefetches", "pre.prefetches", "loads issued during PRE",
             &PreStats::prefetches),
        stat("skipped_dependent", "pre.skipped_dependent",
             "loads skipped past the first indirection level",
             &PreStats::skipped_dependent),
    };
};
static_assert(statTableBytes<PreStats>() == sizeof(PreStats));

/** The PRE engine. */
class PreEngine : public RunaheadEngine
{
  public:
    PreEngine(const SystemConfig &cfg, const Program &prog,
              MemoryImage &image, MemoryHierarchy &hier)
        : cfg_(cfg), prog_(prog), image_(image), hier_(hier)
    {
        cfg_.validate(false);
    }

    Cycle onFullRobStall(Cycle stall_start, Cycle head_fill,
                         const CpuState &frontier,
                         TriggerKind kind) override;

    const char *name() const override { return "PRE"; }

    const PreStats &stats() const { return stats_; }

  private:
    const SystemConfig &cfg_;
    const Program &prog_;
    MemoryImage &image_;
    MemoryHierarchy &hier_;
    PreStats stats_;
};

} // namespace vrsim

#endif // VRSIM_RUNAHEAD_PRE_HH
