/**
 * @file
 * CellSupervisor: runs one RunPlan cell in its own child process
 * (rt/subprocess.hh) and turns whatever happens to that process into
 * a SimResult the sweep layer can record.
 *
 * The contract mirrors thread isolation exactly for everything the
 * guarded runner already handles: the child runs simulate(), so
 * in-taxonomy failures (fatal, panic, hang,
 * diverge) become status-carrying result rows written to the result
 * pipe and are NOT retried — a rejected configuration is just as
 * rejected on attempt 2. Only process-grade deaths — signal, rlimit
 * kill, deadline SIGKILL, or an exit without a result line — are
 * retried with exponential backoff, and a cell that exhausts its
 * attempts is synthesized into a SimStatus::Crashed / TimedOut row
 * carrying the terminating signal and the child's peak RSS.
 *
 * The chaos harness plugs in here: a ChaosPolicy (rt/chaos.hh) can
 * assign a process-grade fault per (cell, attempt), executed inside
 * the child before the point runs. The fault-mutated point (`as_run`)
 * is reported back so repro bundles capture exactly what the child
 * executed and `vrsim --replay` reproduces the death.
 */

#ifndef VRSIM_RT_CELL_SUPERVISOR_HH
#define VRSIM_RT_CELL_SUPERVISOR_HH

#include <cstdint>

#include "driver/sweep_runner.hh"
#include "rt/chaos.hh"
#include "rt/subprocess.hh"

namespace vrsim
{

/** What supervising one cell produced. */
struct CellOutcome
{
    SimResult result;

    /** The point as the final attempt's child executed it (chaos may
     *  have injected a fault); what a repro bundle should record. */
    RunPoint as_run;

    unsigned attempts = 1;        //!< child processes spawned
    uint64_t backoff_ms_total = 0;

    bool retried() const { return attempts > 1; }
};

class CellSupervisor
{
  public:
    CellSupervisor(CellOptions opts, WorkloadCache &cache)
        : opts_(opts), cache_(cache)
    {}

    /**
     * Run @p point to completion under the supervision policy. Never
     * throws for anything the child does; fatal() only on parent-side
     * syscall failure. The parent must have prebuilt the point's
     * workload artifact if other threads share the cache (fork
     * safety; see SweepRunner's process mode). With @p start, the
     * child runs from that copy of a sweep's post-prefix start, which
     * it inherits across the fork; without, it runs its own prefix.
     */
    CellOutcome runCell(const RunPoint &point,
                        const RunStart *start = nullptr);

  private:
    CellOptions opts_;
    WorkloadCache &cache_;
};

} // namespace vrsim

#endif // VRSIM_RT_CELL_SUPERVISOR_HH
