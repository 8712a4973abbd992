/**
 * @file
 * Parallel, fault-isolated executor for RunPlans: a worker pool runs
 * guarded grid points concurrently (VRSIM_JOBS / --jobs, default 1),
 * shares one workload cache so each spec is built exactly once per
 * process, streams per-point progress to stderr, and returns results
 * in plan order — byte-identical output regardless of job count.
 *
 * Three robustness layers ride on top (see docs/robustness.md):
 *  - differential checking (check_digests): every technique column's
 *    committed-state digest is compared against its spec's OoO
 *    baseline column; a mismatch turns that cell's status into
 *    SimStatus::Diverged with the first mismatching interval named;
 *  - crash-repro bundles (repro_dir): every failed cell (fatal,
 *    panic, hang, diverged) is serialized as a self-contained JSON
 *    bundle that `vrsim --replay` re-runs in isolation;
 *  - resumable sweeps (checkpoint/resume): completed cells are
 *    appended to a journal as they finish; a resumed sweep restores
 *    them and only runs the remainder, producing a byte-identical
 *    final table at any job count.
 */

#ifndef VRSIM_DRIVER_SWEEP_RUNNER_HH
#define VRSIM_DRIVER_SWEEP_RUNNER_HH

#include "driver/plan.hh"
#include "obs/stats_registry.hh"
#include "rt/chaos.hh"
#include "workloads/workload_cache.hh"

namespace vrsim
{

class TraceSink;

/**
 * How each grid point is executed:
 *  - Thread: in a worker thread of this process (the default; fastest,
 *    but a SIGSEGV/OOM in any cell kills the whole sweep);
 *  - Process: in a forked child per cell (rt/cell_supervisor.hh), so
 *    signal deaths, runaway allocations, and wedged cells become
 *    Crashed/TimedOut rows while the parent — and the journal — live
 *    on. All-green sweeps produce byte-identical tables either way.
 */
enum class Isolation : uint8_t
{
    Thread,
    Process,
};

/** Parse an isolation mode; fatal() on unknown names. */
Isolation isolationFromName(const std::string &name);

/** Knobs for one sweep execution. */
struct SweepOptions
{
    /**
     * Worker threads. 0 = resolve from the VRSIM_JOBS environment
     * variable (default 1; VRSIM_JOBS=0 means hardware concurrency).
     */
    unsigned jobs = 0;

    /** Stream one "[done/total] id status" line per point to stderr. */
    bool progress = true;

    /** Workload cache to share; null = the process-wide cache. */
    WorkloadCache *cache = nullptr;

    /**
     * Differential oracle: collect a committed-state digest for every
     * point and compare each technique column against its spec's OoO
     * baseline column (same spec and variant). Requires the plan to
     * contain an OoO column for every (spec, variant); fatal()
     * otherwise. Mismatching cells get SimStatus::Diverged.
     */
    bool check_digests = false;

    /** When nonempty, write a crash-repro bundle for every failed
     *  cell into this directory. */
    std::string repro_dir;

    /** When nonempty, append completed cells to this journal file. */
    std::string checkpoint;

    /**
     * Restore completed cells from `checkpoint` before running
     * (fatal() if the journal belongs to a different plan) and only
     * run the rest. Requires `checkpoint` to be set.
     */
    bool resume = false;

    /**
     * Cycle-trace sink attached to every executed point
     * (obs/trace.hh). The sink is a single shared stream, so tracing
     * forces jobs = 1 (with a warning) to keep the event order
     * deterministic. Statistics and digests are unaffected.
     */
    TraceSink *trace = nullptr;

    // ---- process isolation (--isolation process) ----

    /** Execution backend; see Isolation (--isolation). */
    Isolation isolation = Isolation::Thread;

    /** Wall-clock deadline per cell attempt in ms; 0 = none
     *  (--cell-timeout, in seconds). */
    uint64_t cell_timeout_ms = 0;

    /** RLIMIT_AS per cell in MiB; 0 = none (--cell-mem-mb). Do not
     *  combine with ASan builds (rt/subprocess.hh). */
    uint64_t cell_mem_mb = 0;

    /** RLIMIT_CPU per cell in seconds; 0 = none (--cell-cpu-s). */
    uint64_t cell_cpu_s = 0;

    /** Extra attempts after a process-grade cell death (--retries).
     *  Guarded in-taxonomy failures (fatal, panic, hang, diverged)
     *  are never retried. */
    unsigned retries = 0;

    /** First retry delay in ms, doubling per retry (--backoff-ms). */
    uint64_t backoff_ms = 100;

    /** Chaos fault assignment (--chaos SEED:RATE); requires process
     *  isolation. */
    ChaosPolicy chaos;

    /** Test knob: a point's own process-grade fault only fires on
     *  attempts < inject_attempts (rt/cell_supervisor.hh). */
    unsigned inject_attempts = ~0u;
};

class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {}) : opts_(opts) {}

    /**
     * Execute every point of @p plan, fault-isolated: a fatal/panic/
     * hang point becomes a status-carrying result (and a warn line)
     * while its siblings run to completion. Deterministic: the result
     * table is in plan order and each point's simulation is
     * single-threaded and seeded per point, so any job count produces
     * identical tables.
     */
    ResultTable run(const RunPlan &plan);

    /**
     * Worker count the environment asks for: strict-parsed VRSIM_JOBS
     * (absent -> @p dflt, 0 -> hardware concurrency).
     */
    static unsigned jobsFromEnv(unsigned dflt = 1);

    /**
     * Sweep-level telemetry of the last run(): sweep.cells.retried /
     * sweep.cells.crashed / sweep.cells.timed_out counters and the
     * sweep.backoff_ms gauge. Populated (with zeros included) only
     * for process-isolation sweeps; empty otherwise so thread-mode
     * stats output is unchanged.
     */
    const StatsRegistry &stats() const { return stats_; }

  private:
    SweepOptions opts_;
    StatsRegistry stats_;
};

} // namespace vrsim

#endif // VRSIM_DRIVER_SWEEP_RUNNER_HH
