/**
 * @file
 * Host-side self-profiling, the third leg of the observability
 * subsystem (docs/observability.md): how fast is the *simulator*
 * running? A process-wide SelfProfiler accumulates per-phase wall
 * time (workload-build, simulate, report) and simulated-work counts
 * (instructions, cycles, points) so the exit summary and BENCH_*
 * sweeps can report simulated-insts/host-second across PRs.
 *
 * Host timing is inherently nondeterministic, so it never enters the
 * default result tables: per-cell host columns appear in CSV/JSON
 * only when profiling columns are explicitly enabled (`vrsim
 * --profile`), keeping sweep output byte-identical run to run
 * otherwise.
 */

#ifndef VRSIM_OBS_SELF_PROFILE_HH
#define VRSIM_OBS_SELF_PROFILE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace vrsim
{

/**
 * Should host-timing columns be included in per-cell CSV/JSON output?
 * Off until setProfileColumns(true) (the CLI's --profile flag).
 */
bool profileColumnsEnabled();
void setProfileColumns(bool enabled);

class SelfProfiler
{
  public:
    using Clock = std::chrono::steady_clock;

    /** The process-wide profiler (what the vrsim exit summary prints). */
    static SelfProfiler &process();

    SelfProfiler() : start_(Clock::now()) {}

    /**
     * RAII phase timer: elapsed wall time between construction and
     * destruction is added to the named phase. Phases nest naturally
     * (time spent in an inner phase is also counted by the outer one;
     * the summary reports them side by side, not as a strict
     * partition).
     */
    class PhaseTimer
    {
      public:
        PhaseTimer(SelfProfiler &p, const char *phase)
            : prof_(&p), phase_(phase), start_(Clock::now())
        {}
        PhaseTimer(PhaseTimer &&o) noexcept
            : prof_(o.prof_), phase_(o.phase_), start_(o.start_)
        {
            o.prof_ = nullptr;
        }
        PhaseTimer(const PhaseTimer &) = delete;
        PhaseTimer &operator=(const PhaseTimer &) = delete;
        PhaseTimer &operator=(PhaseTimer &&) = delete;

        ~PhaseTimer()
        {
            if (prof_)
                prof_->addPhase(phase_, seconds());
        }

        /** Elapsed seconds so far (the timer keeps running). */
        double
        seconds() const
        {
            return std::chrono::duration<double>(Clock::now() - start_)
                .count();
        }

      private:
        SelfProfiler *prof_;
        const char *phase_;
        Clock::time_point start_;
    };

    /** Start timing @p phase (a stable string literal). */
    PhaseTimer phase(const char *name) { return PhaseTimer(*this, name); }

    /** Record completed simulated work (thread-safe). */
    void
    addSimulated(uint64_t insts, uint64_t cycles)
    {
        insts_.fetch_add(insts, std::memory_order_relaxed);
        cycles_.fetch_add(cycles, std::memory_order_relaxed);
        points_.fetch_add(1, std::memory_order_relaxed);
    }

    void addPhase(const char *name, double seconds);

    uint64_t insts() const { return insts_.load(); }
    uint64_t cycles() const { return cycles_.load(); }
    uint64_t points() const { return points_.load(); }

    /** Accumulated seconds for @p name (0 if never timed). */
    double phaseSeconds(const char *name) const;

    /** Wall seconds since construction/reset. */
    double
    wallSeconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_)
            .count();
    }

    /** Simulated instructions per host wall second (0 if no time). */
    double instsPerSecond() const;

    /**
     * One-line human summary for the exit path, e.g.:
     * "self-profile: 8 points, 1.20 Minsts in 0.84 s host
     *  (1.43 Minsts/s; workload-build 0.02 s, simulate 0.78 s)"
     */
    std::string summary() const;

    /** Forget everything (tests). */
    void reset();

  private:
    Clock::time_point start_;
    std::atomic<uint64_t> insts_{0};
    std::atomic<uint64_t> cycles_{0};
    std::atomic<uint64_t> points_{0};
    mutable std::mutex mutex_;
    std::map<std::string, double> phases_;
};

} // namespace vrsim

#endif // VRSIM_OBS_SELF_PROFILE_HH
