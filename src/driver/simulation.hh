/**
 * @file
 * Simulation facade: simulate() builds the hierarchy + engine for a
 * RunPoint's technique, runs a workload on the core, and collects a
 * uniform result record — the one entry point sweeps, examples,
 * benches and tests use.
 */

#ifndef VRSIM_DRIVER_SIMULATION_HH
#define VRSIM_DRIVER_SIMULATION_HH

#include <atomic>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/ooo_core.hh"
#include "runahead/dvr.hh"
#include "runahead/pre.hh"
#include "runahead/vector_runahead.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"
#include "workloads/workload_cache.hh"

namespace vrsim
{

/**
 * How one simulation run ended. simulate() maps the
 * error taxonomy (sim/logging.hh) onto this so a sweep can record a
 * failed run and keep going; see docs/robustness.md.
 */
enum class SimStatus : uint8_t
{
    Ok,       //!< run completed, statistics are valid
    Fatal,    //!< rejected configuration / user error (FatalError)
    Panic,    //!< internal invariant violation (PanicError)
    Hang,     //!< forward-progress watchdog expired (HangError)
    Diverged, //!< committed-state digest differs from the baseline's
    Crashed,  //!< child process died (signal / rlimit / bare exit);
              //!< only produced under --isolation process
    TimedOut, //!< child exceeded its wall-clock deadline and was
              //!< SIGKILLed; only produced under --isolation process
};

/** Lower-case status name as rendered in reports and CSV. */
const char *simStatusName(SimStatus s);

/**
 * SMARTS-style interval-sampling plan (docs/sampling.md). A sampled
 * run first functionally fast-forwards @p ff_insts instructions
 * (timing-free, native-loop speed), then covers the remaining budget
 * in periods of @p period instructions, each split into a functional
 * fast-forward with cache/BP warming, @p warm detailed-warm
 * instructions (simulated in full detail, excluded from statistics),
 * and @p detail detailed-measured instructions. Either half can be
 * used alone: ff_insts with period == 0 is a plain prefix skip before
 * a full-detail ROI.
 */
struct SamplingPlan
{
    uint64_t ff_insts = 0;  //!< functional prefix skip before the ROI
    uint64_t period = 0;    //!< instructions per period (0 = off)
    uint64_t detail = 0;    //!< detailed-measured insts per period
    uint64_t warm = 0;      //!< detailed-warm insts per period

    /** Is interval sampling (the periodic part) on? */
    bool sampling() const { return period != 0; }

    /** Does the plan change execution at all? */
    bool enabled() const { return ff_insts != 0 || sampling(); }

    /** fatal() on inconsistent geometry (detail == 0, detail + warm
     *  exceeding period). */
    void validate() const;

    /**
     * Parse the CLI form "N:M[:W]" — N detailed-measured instructions
     * per period of M, with W detailed-warm instructions before each
     * measured window (default: min(N, M - N)). fatal() on malformed
     * or inconsistent specs.
     */
    static SamplingPlan parse(const std::string &spec);
};

/**
 * Per-run summary of a sampled execution: how much ran functionally
 * vs. in detail, and the raw moments of the per-interval CPI
 * observations (mean / stddev / 95% CI derived on demand, Student-t
 * for small interval counts).
 *
 * The sampled quantity is CPI, not IPC, exactly as in SMARTS: with
 * fixed-length measure windows the arithmetic mean of per-interval
 * CPI equals total measured cycles over total measured instructions
 * (the ratio estimate of the full run's CPI), whereas a mean of
 * per-interval IPCs is biased high on any workload whose IPC varies
 * between intervals (Jensen: E[1/x] >= 1/E[x]). The derived ipcMean()
 * is the reciprocal, and ipcCi95() propagates the CPI interval
 * through the reciprocal (delta method) — see docs/sampling.md.
 */
struct SampleSummary : StatRecord<SampleSummary>
{
    uint64_t intervals = 0;
    uint64_t ff_insts = 0;
    uint64_t warm_insts = 0;
    double cpi_sum = 0.0;
    double cpi_sumsq = 0.0;

    static constexpr std::tuple fields{
        stat("intervals", "sample.intervals",
             "completed detailed-measure windows", &SampleSummary::intervals),
        stat("ff_insts", "sample.ff_insts",
             "functionally fast-forwarded instructions",
             &SampleSummary::ff_insts),
        stat("warm_insts", "sample.warm_insts",
             "detailed-warm instructions excluded from statistics",
             &SampleSummary::warm_insts),
        stat("cpi_sum", "sum of per-interval CPIs", &SampleSummary::cpi_sum),
        stat("cpi_sumsq", "sum of squared per-interval CPIs",
             &SampleSummary::cpi_sumsq),
    };

    double cpiMean() const
    { return intervals ? cpi_sum / double(intervals) : 0.0; }
    double cpiStddev() const;
    double cpiCi95() const;

    double ipcMean() const
    { return cpiMean() > 0.0 ? 1.0 / cpiMean() : 0.0; }
    double ipcCi95() const
    {
        double m = cpiMean();
        return m > 0.0 ? cpiCi95() / (m * m) : 0.0;
    }

    /** Register the counters plus the sample.cpi Sample node. */
    void registerIn(StatsRegistry &reg) const;
};
static_assert(statTableBytes<SampleSummary>() ==
              sizeof(SampleSummary));

/**
 * One step of a run's segment schedule (docs/sampling.md). Ff runs
 * timing-free at native-loop speed and leaves the timing state cold;
 * FfWarm also warms caches, predictors and the BTB; Detailed runs in
 * full detail, excluding its first `warm` instructions from the
 * statistics within the same OooCore::runFrom call (the pipeline
 * restarts empty on every call, so splitting it would change timing).
 */
struct Segment
{
    enum class Kind : uint8_t { Ff, FfWarm, Detailed };

    Kind kind = Kind::Detailed;
    uint64_t insts = 0;   //!< instructions to run, warm prefix included
                          //!< (Detailed 0: up to cfg.max_insts)
    uint64_t warm = 0;    //!< Detailed: leading instructions not measured
    bool window = false;  //!< Detailed: a SMARTS measure window — one
                          //!< CPI observation; a halt inside its warm
                          //!< prefix drops it and ends the run
};

/**
 * The segments a run executes, built from its instruction budget,
 * warmup and SamplingPlan:
 *   plain run   [Detailed(W+R, warm W)]
 *   ff prefix   [Ff(F), Detailed(W+R, warm W)]
 *   SMARTS      [Ff(F)] then [FfWarm(M-N-W), Detailed(W+N, warm W)]
 *               repeated budget/M times
 * Repeated periods are generated on demand, so a long sampled run
 * holds no per-period state.
 */
class SegmentSchedule
{
  public:
    /** fatal() on plans no budget fits or combined with a warmup. */
    SegmentSchedule(uint64_t budget, uint64_t warmup,
                    const SamplingPlan &plan);

    uint64_t size() const { return head_.size() + periods_ * body_.size(); }

    const Segment &
    operator[](uint64_t k) const
    {
        return k < head_.size() ? head_[k]
                                : body_[(k - head_.size()) % body_.size()];
    }

  private:
    std::vector<Segment> head_;
    std::vector<Segment> body_;  //!< one sampling period
    uint64_t periods_ = 0;
};

/**
 * Process exit code for a run that ended with @p status (the
 * docs/robustness.md table): 0 ok, 1 fatal, 70 panic/hang/diverged,
 * 124 timed out (the coreutils `timeout` convention), and 128+signo
 * for a crash by signal @p term_signal (1 when the terminating
 * signal is unknown) — so a SIGSEGV death can never alias a taxonomy
 * code like 70.
 */
int exitCodeForStatus(SimStatus status, int term_signal = 0);

/** Uniform result record of one simulation run. */
struct SimResult
{
    std::string workload;
    Technique technique = Technique::OoO;
    SimStatus status = SimStatus::Ok;
    std::string status_message;  //!< diagnostic when status != Ok
    CoreStats core;
    MemStats mem;
    double mlp = 0.0;        //!< mean L1D MSHRs busy per cycle
    double host_seconds = 0.0; //!< host wall time of the core run
                               //!< (self-profiling; never part of the
                               //!< default report output)
    double host_ff_seconds = 0.0;       //!< host time in functional
                                        //!< fast-forward segments
    double host_detailed_seconds = 0.0; //!< host time in detailed
                                        //!< (warm + measure) windows
    int term_signal = 0;       //!< terminating signal (Crashed cells
                               //!< under --isolation process; else 0)
    uint64_t rss_peak_kb = 0;  //!< child peak RSS in KiB (process
                               //!< isolation only; else 0)

    /** Did the run complete (statistics below are meaningful)? */
    bool ok() const { return status == SimStatus::Ok; }

    // Engine summaries (whichever applies).
    std::optional<PreStats> pre;
    std::optional<VrStats> vr;
    std::optional<DvrStats> dvr;

    /** Committed-state digest, when cfg.collect_digest was set. */
    std::optional<DigestRecord> digest;

    /** Sampling summary, when the run used an enabled SamplingPlan
     *  (intervals == 0 for a plain --ff-insts prefix skip). */
    std::optional<SampleSummary> sample;

    double ipc() const { return core.ipc(); }
};

/**
 * Which failure class an injected-failure point raises (the
 * `--inject-fail NAME[:KIND]` contract): each kind exercises one leg
 * of the error taxonomy end to end — exception, status, exit code,
 * repro bundle. Diverge runs the point for real but poisons its
 * digest so the differential-check path is exercised too.
 */
enum class InjectKind : uint8_t
{
    None,
    Fatal,
    Panic,
    Hang,
    Diverge,
    // Process-grade kinds (the chaos harness): these kill or wedge the
    // whole process instead of raising a guarded exception, so they
    // only make sense under --isolation process, where the child dies
    // and the supervising parent records the death. Under thread
    // isolation they are rejected with fatal().
    Segv,      //!< dereference null: die by SIGSEGV
    Oom,       //!< allocate until the RLIMIT_AS cap (or a self-bound)
    Spin,      //!< infinite loop: die by deadline / RLIMIT_CPU
    ExitCode,  //!< _exit(arg) without writing a result
    KillSelf,  //!< raise(arg): die by an arbitrary signal
};

/** Printable inject-kind name ("fatal", "panic", ...). */
const char *injectKindName(InjectKind k);

/** Parse an inject kind; fatal() on unknown names. */
InjectKind injectKindFromName(const std::string &name);

/**
 * Parse an inject-kind spec with an optional argument: "exit:3" and
 * "killself:9" carry one, the other kinds are bare names. fatal() on
 * unknown names, a missing/malformed argument, or an argument given
 * to a kind that takes none.
 */
InjectKind injectKindParse(const std::string &spec, uint32_t &arg);

/** Does this kind kill/wedge the process rather than raise a guarded
 *  exception? Such kinds require --isolation process. */
bool injectKindIsProcessGrade(InjectKind k);

/**
 * One fully resolved run: a workload × technique × config cell, as a
 * RunPlan (plan.hh) enumerates them or as a caller spells one out:
 *
 *   SimResult r = simulate({.spec = "camel", .technique = Technique::Dvr,
 *                           .cfg = SystemConfig::benchScale(),
 *                           .max_insts = 100'000});
 */
struct RunPoint
{
    std::string spec{};     //!< workload spec ("bfs/KR", "camel", ...)
    Technique technique = Technique::OoO;
    std::string column{};   //!< technique-column label
    std::string variant{};  //!< config-variant label ("" = base)
    std::optional<DvrFeatures> features{};  //!< DVR feature override
    SystemConfig cfg{};     //!< base config with the variant applied
    GraphScale gscale{};
    HpcDbScale hscale{};
    uint64_t max_insts = 0; //!< budget, warmup included (0 = the
                            //!< workload's suggested_insts)
    uint64_t warmup = 0;    //!< leading insts excluded from statistics
    SamplingPlan sampling{};  //!< fast-forward / interval sampling
    InjectKind inject_kind = InjectKind::None;  //!< fault to raise
    uint32_t inject_arg = 0;   //!< exit code / signal for exit, killself

    /** Stable point ID: "spec:column" or "spec:column:variant". */
    std::string id() const;
};

/**
 * Where a run begins: its workload after the head Ff segment of its
 * schedule, the --ff-insts prefix (docs/sampling.md). The prefix is
 * pure functional execution, so this state depends on the workload,
 * the prefix length and the digest settings only, never on the
 * technique: one sweep builds it once per key (SweepStarts) and every
 * point that shares it starts from a copy.
 */
struct RunStart
{
    MemoryImage image;                  //!< memory after the prefix
    CpuState state;                     //!< registers after the prefix
    std::optional<StateDigest> digest;  //!< the prefix's hash state,
                                        //!< when the run collects one
    uint64_t ff_insts = 0;              //!< prefix instructions run
    double host_seconds = 0.0;          //!< host time the prefix took
};

/**
 * Run @p p on the pre-built workload @p w (custom kernels; a
 * completed run leaves its stores in w's image). The point supplies
 * the technique, the DVR feature override (ablations; ignored for
 * non-DVR techniques), the config, the instruction budget, the warmup
 * excluded from the statistics and the sampling plan; @p w stands in
 * for its spec and scales.
 *
 * A sampling plan turns the run into a fast-forwarded and/or
 * interval-sampled one (docs/sampling.md): max_insts then bounds the
 * detailed/sampled ROI stream after the ff_insts prefix, and
 * combining interval sampling with a warmup is rejected (the plan's
 * per-window warm instructions replace it). The digest, when
 * collected, covers the full committed stream — fast-forwarded
 * regions hash through the functional path and are byte-identical to
 * a detailed run over the same stream.
 *
 * Never throws the error taxonomy: a FatalError / PanicError /
 * HangError becomes a failed row labelled w.name (zeroed statistics,
 * ok() == false), so one bad configuration or wedged run degrades a
 * sweep rather than destroying it. The point's in-process injected
 * fault is raised here too; process-grade kinds are rejected as
 * Fatal (rt/cell_supervisor.hh executes them). @p trace, when
 * non-null, receives a meta event for the point, then the hierarchy,
 * engine and core's cycle-level events (obs/trace.hh); statistics and
 * digests are identical with and without it.
 */
SimResult simulate(const RunPoint &p, Workload &w,
                   TraceSink *trace = nullptr);

/**
 * Run @p p from a private start: its own --ff-insts prefix over a
 * copy of its spec's artifact at its scales, taken from @p cache so
 * each spec is built once per cache. The copy shares the artifact's
 * pages until it writes them, so stores cannot leak between runs.
 * The trace meta event and the injected fault come before the build;
 * a failed build or run becomes a failed row labelled p.spec.
 *
 * The default cache is WorkloadCache::process(): it keeps every
 * artifact it builds until the process exits, and a "bfs/file:PATH"
 * spec keeps the file's contents as first read. A caller that runs a
 * spec once and wants its memory back, or that rewrites the file,
 * passes a local cache.
 */
SimResult simulate(const RunPoint &p,
                   WorkloadCache &cache = WorkloadCache::process(),
                   TraceSink *trace = nullptr);

/**
 * The post-prefix starts of one sweep (docs/performance.md): one
 * RunStart per distinct key among its points (spec, scales, ff_insts
 * and the digest settings the run will use), so a prefix runs once
 * per sweep instead of once per column. The constructor builds them
 * all, on up to @p jobs threads joined before it returns, so a
 * process-isolation sweep may fork right after. Each point then
 * takes its copy once; the copy shares the start's pages. The first
 * point in plan order is charged the prefix's host time, and the last
 * to take its copy drops the start, so the starts never outlive the
 * sweep and the WorkloadCache keeps only pristine artifacts.
 *
 * A start whose build failed (a failed workload build, an internal
 * error) is absent: its points run their own prefix and so report
 * the failure themselves, in their own order and log context.
 */
class SweepStarts
{
  public:
    /** Build the start of every point @p skip does not mark (points
     *  restored by --resume need none). */
    SweepStarts(const std::vector<RunPoint> &points,
                const std::vector<char> &skip, WorkloadCache &cache,
                unsigned jobs);

    /** Point @p i's copy of its start, or nullopt when the start's
     *  build failed. Take each point's copy exactly once. */
    std::optional<RunStart> take(size_t i);

    /** How many starts were built. */
    uint64_t builds() const { return builds_; }

  private:
    struct Slot
    {
        size_t first = 0;          //!< first user in plan order
        std::atomic<size_t> users{0};
        std::optional<RunStart> start;
    };

    std::vector<std::unique_ptr<Slot>> slots_;
    std::vector<size_t> slot_of_;  //!< point index -> slots_ index
    uint64_t builds_ = 0;
};

/**
 * simulate(p, cache, trace), started from @p start, a copy of a
 * sweep's shared start, instead of a private prefix. A prefix that
 * halted fails the run where running it would have: after the point's
 * own injected fault, workload build, sampling-plan and configuration
 * checks.
 */
SimResult simulate(const RunPoint &p, WorkloadCache &cache,
                   RunStart start, TraceSink *trace = nullptr);

/** All benchmark-input specs of the paper's Fig. 7 (GAP x 5 inputs +
 *  hpc-db). */
std::vector<std::string> allBenchmarkSpecs();

/** The 5-input GAP specs only. */
std::vector<std::string> gapBenchmarkSpecs();

/** Harmonic mean of positive values. */
double harmonicMean(const std::vector<double> &values);

/** Print a markdown-style table of results (one row per workload). */
void printSpeedupTable(std::ostream &os,
                       const std::vector<std::string> &row_names,
                       const std::vector<std::string> &col_names,
                       const std::vector<std::vector<double>> &cells);

} // namespace vrsim

#endif // VRSIM_DRIVER_SIMULATION_HH
