/**
 * @file
 * The interface between the out-of-order core timing model and the
 * pluggable latency-tolerance engines (PRE, VR, DVR).
 */

#ifndef VRSIM_CORE_ENGINE_HH
#define VRSIM_CORE_ENGINE_HH

#include "isa/interp.hh"
#include "mem/request.hh"
#include "obs/trace.hh"

namespace vrsim
{

/** Why the core entered a runahead window. */
enum class TriggerKind : uint8_t
{
    WindowFull,   //!< ROB/LQ exhausted behind a long-latency load
    BranchStall,  //!< mispredict waiting on memory; the window fills
                  //!< with wrong-path µops (full-ROB stall too, but
                  //!< the fetched instructions are wrong-path)
};

/** Stable lower-case trigger name (trace events). */
constexpr const char *
triggerKindName(TriggerKind k)
{
    switch (k) {
      case TriggerKind::WindowFull: return "window";
      case TriggerKind::BranchStall: return "branch";
    }
    return "unknown";
}

/**
 * Hook interface implemented by the runahead engines. The core invokes
 * these as it processes the dynamic instruction stream.
 */
class RunaheadEngine
{
  public:
    virtual ~RunaheadEngine() = default;

    /**
     * Called for every instruction the main thread processes, in
     * program order, with the functional outcome and the architectural
     * state *after* the instruction.
     *
     * @param si      functional outcome of the instruction
     * @param after   architectural state after the instruction
     * @param cycle   approximate dispatch cycle in the timing model
     */
    virtual void
    onInstruction(const StepInfo &si, const CpuState &after, Cycle cycle)
    {
        (void)si; (void)after; (void)cycle;
    }

    /**
     * Called when dispatch blocks on a full ROB whose head is a
     * pending long-latency load (the classic runahead trigger).
     *
     * @param stall_start cycle the stall began
     * @param head_fill   cycle the blocking load's data returns
     * @param frontier    architectural state at the fetch frontier
     *                    (where transient runahead execution begins)
     * @param kind        what caused the stall (see TriggerKind)
     * @return the cycle at which the core may resume committing;
     *         head_fill for non-delayed techniques, later for VR's
     *         delayed termination
     */
    virtual Cycle
    onFullRobStall(Cycle stall_start, Cycle head_fill,
                   const CpuState &frontier,
                   TriggerKind kind = TriggerKind::WindowFull)
    {
        (void)stall_start; (void)frontier; (void)kind;
        return head_fill;
    }

    /** Engine name for reports. */
    virtual const char *name() const = 0;

    /**
     * Attach a cycle-trace sink (obs/trace.hh). Engines emit
     * TraceCat::Runahead enter/exit events around each runahead
     * interval; vectorized engines forward the sink to their lane
     * executor for TraceCat::Lanes events. nullptr detaches.
     */
    virtual void setTraceSink(TraceSink *sink) { trace_sink_ = sink; }

  protected:
    /**
     * Emit one TraceCat::Runahead episode boundary under this engine's
     * name, when a sink with that category is attached.
     *
     * @param phase "enter" or "exit"
     * @param kind  what the episode is ("window", "branch", "stride",
     *              "nested")
     */
    void
    traceRunahead(Cycle cycle, const char *phase, const char *kind,
                  uint32_t trigger_pc, uint64_t lanes,
                  uint64_t prefetches) const
    {
        if (trace_sink_ && trace_sink_->enabled(TraceCat::Runahead))
            trace_sink_->runahead(cycle, phase, name(), kind, trigger_pc,
                                  lanes, prefetches);
    }

    TraceSink *trace_sink_ = nullptr;
};

} // namespace vrsim

#endif // VRSIM_CORE_ENGINE_HH
