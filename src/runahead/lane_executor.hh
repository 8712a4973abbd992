/**
 * @file
 * The SIMT lane executor: runs many scalar-equivalent lanes of the
 * speculatively vectorized dependence chain in lockstep, issuing timed
 * memory accesses through the hierarchy, with either GPU-style
 * divergence/reconvergence (DVR, §4.2.3) or first-lane control flow
 * with divergent-lane invalidation (VR, §2.3).
 */

#ifndef VRSIM_RUNAHEAD_LANE_EXECUTOR_HH
#define VRSIM_RUNAHEAD_LANE_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "isa/interp.hh"
#include "mem/hierarchy.hh"
#include "runahead/reconv_stack.hh"
#include "runahead/vir.hh"
#include "runahead/vrat.hh"
#include "sim/config.hh"

namespace vrsim
{

class TraceSink;

/** One scalar-equivalent lane of the vectorized subthread. */
struct Lane
{
    CpuState ctx;        //!< per-lane architectural context
    Cycle ready = 0;     //!< when the lane's latest loaded value lands
    uint32_t insts = 0;  //!< instructions executed (timeout)
    bool done = false;
};

/** Outcome of one lane-executor run. */
struct LaneRunStats
{
    uint64_t prefetches = 0;    //!< runahead loads issued
    uint64_t insts = 0;         //!< total scalar-equivalent µops
    uint64_t divergences = 0;   //!< divergent branch events
    uint64_t invalidated = 0;   //!< lanes killed (VR mode divergence)
    Cycle end_time = 0;         //!< cycle the last access was issued
};

/** Runs lanes in SIMT lockstep. */
class LaneExecutor
{
  public:
    /**
     * @param invariant_checks enable the cheap end-of-run invariant
     *        checks (reconvergence-stack balance); the engines pass
     *        SystemConfig::invariant_checks through
     */
    LaneExecutor(const RunaheadConfig &cfg, const Program &prog,
                 MemoryImage &image, MemoryHierarchy &hier,
                 bool invariant_checks = true)
        : cfg_(cfg), prog_(prog), image_(image), hier_(hier),
          invariant_checks_(invariant_checks)
    {}

    /**
     * Vectorize a striding load as one full-mask VIR gather: lane j
     * loads iteration @p first + j, at load.addr + stride * (first +
     * j), in VIR copy j / lanes_per_vector. Every lane gets a copy of
     * @p from with the loaded value in the load's destination and its
     * pc at the instruction after the load, ready for run().
     *
     * @param lanes the lanes to seed (at most MAX_LANES)
     * @param first iteration of lane 0, counted from @p load's own
     * @param start VIR timeline start; at or after the triggering
     *              stall's dispatch point, so every gather access
     *              honours the calendar-horizon floor
     *              (docs/performance.md)
     * @return the VIR time at which the dependence chain starts
     */
    Cycle seed(std::vector<Lane> &lanes, const CpuState &from,
               const StepInfo &load, int64_t stride, uint64_t first,
               Cycle start);

    /**
     * Execute the given lanes from their shared current pc until each
     * terminates: executing the FLR load (when @p stop_at_flr),
     * reaching @p stride_pc again (the next loop iteration), halting,
     * or the per-lane timeout.
     *
     * @param lanes       lane contexts; all active lanes must share
     *                    ctx.pc on entry
     * @param stride_pc   pc of the initiating striding load
     * @param flr_pc      pc in the Final-Load Register (0 = unknown)
     * @param stop_at_flr stop lanes after issuing the FLR load
     * @param reconverge  true = DVR divergence/reconvergence,
     *                    false = VR first-lane flow + invalidation
     * @param start_cycle subthread timeline start
     * @param vrat        optional register-allocation model: when a
     *                    vectorized destination needs a fresh set of
     *                    vector physical registers and the free list
     *                    is exhausted, the subthread stalls one
     *                    recycling round (paper §4.2.1)
     */
    LaneRunStats run(std::vector<Lane> &lanes, uint32_t stride_pc,
                     uint32_t flr_pc, bool stop_at_flr, bool reconverge,
                     Cycle start_cycle, Vrat *vrat = nullptr);

    /**
     * Attach a cycle-trace sink (obs/trace.hh): every vector-load
     * issue group emits one TraceCat::Lanes event. nullptr detaches.
     */
    void setTraceSink(TraceSink *sink) { tsink_ = sink; }

  private:
    const RunaheadConfig &cfg_;
    const Program &prog_;
    MemoryImage &image_;
    MemoryHierarchy &hier_;
    bool invariant_checks_;
    TraceSink *tsink_ = nullptr;
};

} // namespace vrsim

#endif // VRSIM_RUNAHEAD_LANE_EXECUTOR_HH
