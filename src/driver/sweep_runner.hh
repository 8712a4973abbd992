/**
 * @file
 * Parallel, fault-isolated executor for RunPlans: a worker pool runs
 * guarded grid points concurrently (VRSIM_JOBS / --jobs, default 1),
 * shares one workload cache so each spec is built exactly once per
 * process, runs each --ff-insts prefix once per sweep (SweepStarts),
 * streams per-point progress to stderr, and returns results in plan
 * order — byte-identical output regardless of job count.
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

#include <cstdint>
#include <limits>

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

/** Per-cell supervision knobs (the --cell-* / --retries flags). */
struct CellOptions
{
    /** Largest --cell-mem-mb (16 TiB): mem_mb << 20 must not wrap. */
    static constexpr uint64_t MAX_MEM_MB = 1ull << 24;

    /** Largest --retries. */
    static constexpr unsigned MAX_RETRIES = 100;

    /** Cap on one retry's delay (one hour): the doubling saturates. */
    static constexpr uint64_t MAX_BACKOFF_MS = 3'600'000;

    /** Wall-clock deadline per attempt in ms; 0 = none
     *  (--cell-timeout, in seconds). */
    uint64_t timeout_ms = 0;

    /** RLIMIT_AS per cell in MiB, at most MAX_MEM_MB; 0 = none
     *  (--cell-mem-mb). Incompatible with ASan builds (see
     *  rt/subprocess.hh). */
    uint64_t mem_mb = 0;

    /** RLIMIT_CPU per cell in seconds; 0 = none (--cell-cpu-s). */
    uint64_t cpu_s = 0;

    /** Extra attempts after a process-grade death (--retries, at
     *  most MAX_RETRIES).
     *  Guarded in-taxonomy failures (fatal, panic, hang, diverged)
     *  are never retried. */
    unsigned retries = 0;

    /** First retry delay; doubles per further retry (--backoff-ms),
     *  saturating at MAX_BACKOFF_MS. */
    uint64_t backoff_ms = 100;

    /** The delay before retry number @p attempt + 1 (attempt 0 is
     *  the first retry). */
    uint64_t
    backoffMs(unsigned attempt) const
    {
        if (backoff_ms == 0)
            return 0;
        if (attempt >= 64 || backoff_ms > (MAX_BACKOFF_MS >> attempt))
            return MAX_BACKOFF_MS;
        return backoff_ms << attempt;
    }

    /** Chaos fault assignment (--chaos SEED:RATE; disabled by
     *  default). */
    ChaosPolicy chaos;

    /**
     * Test knob: the point's own injected process-grade fault only
     * executes on attempts < inject_attempts, modelling a transient
     * fault that a retry survives. Default: every attempt faults.
     */
    unsigned inject_attempts = std::numeric_limits<unsigned>::max();
};

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

    /** Execution backend; see Isolation (--isolation). */
    Isolation isolation = Isolation::Thread;

    /** How each cell is supervised under process isolation; chaos
     *  requires it. */
    CellOptions cell;
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

    /** Post-prefix starts the last run() built (SweepStarts): one per
     *  distinct prefix key among the points it ran. */
    uint64_t startBuilds() const { return start_builds_; }

  private:
    SweepOptions opts_;
    StatsRegistry stats_;
    uint64_t start_builds_ = 0;
};

} // namespace vrsim

#endif // VRSIM_DRIVER_SWEEP_RUNNER_HH
