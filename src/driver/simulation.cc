#include "driver/simulation.hh"

#include <chrono>
#include <csignal>
#include <iomanip>
#include <memory>

#include "obs/self_profile.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sim/parse.hh"

namespace vrsim
{

void
SamplingPlan::validate() const
{
    if (!sampling()) {
        if (detail || warm)
            fatal("sampling plan has detail/warm windows but no "
                  "period");
        return;
    }
    if (detail == 0)
        fatal("sampling plan needs a nonzero detailed-measure window "
              "(--sample N:M with N > 0)");
    if (detail + warm > period)
        fatal("sampling plan windows exceed the period: detail " +
              std::to_string(detail) + " + warm " +
              std::to_string(warm) + " > period " +
              std::to_string(period));
}

SamplingPlan
SamplingPlan::parse(const std::string &spec)
{
    SamplingPlan p;
    size_t c1 = spec.find(':');
    if (c1 == std::string::npos)
        fatal("--sample wants N:M[:W] (N measured insts per period of "
              "M, W detailed-warm insts), got '" + spec + "'");
    size_t c2 = spec.find(':', c1 + 1);
    p.detail = parseU64("--sample measure window",
                        spec.substr(0, c1).c_str());
    if (c2 == std::string::npos) {
        p.period = parseU64("--sample period",
                            spec.substr(c1 + 1).c_str());
        p.warm = std::min(p.detail, p.period > p.detail
                                        ? p.period - p.detail : 0);
    } else {
        p.period = parseU64(
            "--sample period", spec.substr(c1 + 1, c2 - c1 - 1).c_str());
        p.warm = parseU64("--sample warm window",
                          spec.substr(c2 + 1).c_str());
    }
    p.validate();
    return p;
}

double
SampleSummary::cpiStddev() const
{
    return momentsStddev(cpi_sum, cpi_sumsq, intervals);
}

double
SampleSummary::cpiCi95() const
{
    return momentsCi95(cpi_sum, cpi_sumsq, intervals);
}

void
SampleSummary::registerIn(StatsRegistry &reg) const
{
    StatRecord::registerIn(reg);
    reg.addSample("sample.cpi",
                  "per-interval CPI of the detailed-measure windows "
                  "(mean, stddev, 95% CI); sampled IPC is 1/mean")
        .setMoments(cpi_sum, cpi_sumsq, intervals);
}

SegmentSchedule::SegmentSchedule(uint64_t budget, uint64_t warmup,
                                 const SamplingPlan &plan)
{
    plan.validate();
    if (plan.ff_insts)
        head_.push_back({Segment::Kind::Ff, plan.ff_insts});
    if (!plan.sampling()) {
        head_.push_back({Segment::Kind::Detailed, budget, warmup});
        return;
    }
    if (warmup)
        fatal("--sample and --warmup are mutually exclusive: the "
              "plan's per-window detailed-warm instructions replace "
              "the global warmup");
    periods_ = budget / plan.period;
    if (periods_ == 0)
        fatal("--sample period " + std::to_string(plan.period) +
              " exceeds the instruction budget " +
              std::to_string(budget) + " (no interval fits)");
    if (uint64_t ff = plan.period - plan.detail - plan.warm)
        body_.push_back({Segment::Kind::FfWarm, ff});
    body_.push_back({Segment::Kind::Detailed, plan.warm + plan.detail,
                     plan.warm, /*window=*/true});
}

const char *
simStatusName(SimStatus s)
{
    switch (s) {
      case SimStatus::Ok: return "ok";
      case SimStatus::Fatal: return "fatal";
      case SimStatus::Panic: return "panic";
      case SimStatus::Hang: return "hang";
      case SimStatus::Diverged: return "diverged";
      case SimStatus::Crashed: return "crashed";
      case SimStatus::TimedOut: return "timedout";
    }
    panic("unknown SimStatus");
}

int
exitCodeForStatus(SimStatus status, int term_signal)
{
    switch (status) {
      case SimStatus::Ok: return 0;
      case SimStatus::Fatal: return 1;
      case SimStatus::Panic:
      case SimStatus::Hang:
      case SimStatus::Diverged: return 70;  // sysexits EX_SOFTWARE
      case SimStatus::TimedOut: return 124; // coreutils `timeout`
      case SimStatus::Crashed:
        // Shell convention: death by signal N surfaces as 128+N, so
        // a SIGSEGV (139) can never alias a taxonomy code above.
        return term_signal > 0 ? 128 + term_signal : 1;
    }
    panic("unknown SimStatus");
}

const char *
injectKindName(InjectKind k)
{
    switch (k) {
      case InjectKind::None: return "none";
      case InjectKind::Fatal: return "fatal";
      case InjectKind::Panic: return "panic";
      case InjectKind::Hang: return "hang";
      case InjectKind::Diverge: return "diverge";
      case InjectKind::Segv: return "segv";
      case InjectKind::Oom: return "oom";
      case InjectKind::Spin: return "spin";
      case InjectKind::ExitCode: return "exit";
      case InjectKind::KillSelf: return "killself";
    }
    panic("unknown InjectKind");
}

InjectKind
injectKindFromName(const std::string &name)
{
    static const InjectKind all[] = {
        InjectKind::Fatal,    InjectKind::Panic,
        InjectKind::Hang,     InjectKind::Diverge,
        InjectKind::Segv,     InjectKind::Oom,
        InjectKind::Spin,     InjectKind::ExitCode,
        InjectKind::KillSelf,
    };
    std::string valid;
    for (InjectKind k : all) {
        if (injectKindName(k) == name)
            return k;
        if (!valid.empty())
            valid += ", ";
        valid += injectKindName(k);
    }
    fatal("unknown failure kind '" + name + "' (valid: " + valid + ")");
}

InjectKind
injectKindParse(const std::string &spec, uint32_t &arg)
{
    arg = 0;
    size_t colon = spec.find(':');
    InjectKind kind = injectKindFromName(spec.substr(0, colon));
    bool takes_arg =
        kind == InjectKind::ExitCode || kind == InjectKind::KillSelf;
    if (colon == std::string::npos) {
        if (takes_arg)
            fatal("failure kind '" + spec + "' needs an argument (" +
                  std::string(injectKindName(kind)) + ":N)");
        return kind;
    }
    if (!takes_arg)
        fatal("failure kind '" + std::string(injectKindName(kind)) +
              "' takes no argument (got '" + spec + "')");
    arg = parseU32("--inject-fail " + std::string(injectKindName(kind)),
                   spec.substr(colon + 1).c_str());
    if (kind == InjectKind::ExitCode && arg > 255)
        fatal("exit:N exit code must be 0..255, got " +
              std::to_string(arg));
    if (kind == InjectKind::KillSelf) {
        if (arg == 0 || arg > 64)
            fatal("killself:SIG signal must be 1..64, got " +
                  std::to_string(arg));
        // A stop signal is not a death: the child would sit with its
        // pipes open consuming no CPU until the supervisor's stopped-
        // child sweep SIGKILLs it, which tests nothing useful.
        if (arg == SIGSTOP || arg == SIGTSTP || arg == SIGTTIN ||
            arg == SIGTTOU)
            fatal("killself:SIG rejects stop signals (signal " +
                  std::to_string(arg) + " would suspend the cell, "
                  "not kill it)");
    }
    return kind;
}

bool
injectKindIsProcessGrade(InjectKind k)
{
    switch (k) {
      case InjectKind::Segv:
      case InjectKind::Oom:
      case InjectKind::Spin:
      case InjectKind::ExitCode:
      case InjectKind::KillSelf:
        return true;
      default:
        return false;
    }
}

std::string
RunPoint::id() const
{
    std::string s = spec + ":" + column;
    if (!variant.empty())
        s += ":" + variant;
    return s;
}

namespace
{

/** Deterministic digest poison for InjectKind::Diverge: flips the
 *  second half of the interval samples and the final hash so the
 *  first-mismatching-interval localization is exercised. */
constexpr uint64_t INJECT_POISON = 0x9e3779b97f4a7c15ull;

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0).count();
}

/** Run @p body, folding any FatalError / PanicError / HangError into
 *  a failed row labelled @p workload / @p technique. */
template <class Body>
SimResult
guarded(const std::string &workload, Technique technique, Body &&body)
{
    SimResult failed;
    failed.workload = workload;
    failed.technique = technique;
    try {
        return body();
    } catch (const FatalError &e) {
        failed.status = SimStatus::Fatal;
        failed.status_message = e.what();
    } catch (const HangError &e) {
        failed.status = SimStatus::Hang;
        failed.status_message = e.what();
    } catch (const PanicError &e) {
        failed.status = SimStatus::Panic;
        failed.status_message = e.what();
    }
    return failed;
}

/** The first steps of every run, taken before its workload is built:
 *  emit @p p's trace meta event, then raise its injected fault if an
 *  unsupervised process can raise it (Diverge poisons the finished
 *  run's digest instead). */
void
start(const RunPoint &p, TraceSink *trace)
{
    if (trace)
        trace->meta(p.id(), p.spec, techniqueName(p.technique),
                    p.max_insts, p.warmup);
    const std::string msg = "fault injection requested for " +
        techniqueName(p.technique) + " (--inject-fail)";
    switch (p.inject_kind) {
      case InjectKind::None:
      case InjectKind::Diverge:
        return;
      case InjectKind::Fatal:
        fatal(msg);
      case InjectKind::Panic:
        panic(msg);
      case InjectKind::Hang: {
        ProgressSnapshot snap;
        snap.where = "inject";
        hang(msg, std::move(snap));
      }
      default:
        // Executing these here would kill/wedge the calling process —
        // only a supervised child may run them (rt/cell_supervisor.hh).
        fatal("process-grade fault injection (" +
              std::string(injectKindName(p.inject_kind)) +
              ") requires --isolation process");
    }
}

/** simulate() after start() and without the guard: throws the error
 *  taxonomy. */
SimResult
execute(const RunPoint &p, Workload &w, TraceSink *trace)
{
    const bool diverge = p.inject_kind == InjectKind::Diverge;
    const Technique technique = p.technique;
    SystemConfig cfg = p.cfg;
    cfg.technique = technique;
    if (diverge)
        cfg.collect_digest = true;
    const SegmentSchedule schedule(
        p.max_insts ? p.max_insts : w.suggested_insts, p.warmup,
        p.sampling);
    MemoryHierarchy hier(cfg, w.image);
    if (technique == Technique::Imp)
        hier.enableImp();

    std::unique_ptr<RunaheadEngine> engine;
    switch (technique) {
      case Technique::Pre:
        engine = std::make_unique<PreEngine>(cfg, w.prog, w.image, hier);
        break;
      case Technique::Vr:
        engine = std::make_unique<VectorRunahead>(cfg, w.prog, w.image,
                                                  hier);
        break;
      case Technique::DvrOffload:
      case Technique::DvrDiscovery:
      case Technique::Dvr:
        engine = std::make_unique<DecoupledVectorRunahead>(
            cfg, w.prog, w.image, hier,
            p.features.value_or(technique == Technique::DvrOffload
                                    ? DvrFeatures::offloadOnly()
                                : technique == Technique::DvrDiscovery
                                    ? DvrFeatures::withDiscovery()
                                    : DvrFeatures::full()));
        break;
      default:
        break;
    }

    OooCore core(cfg, w.prog, w.image, hier, engine.get());
    if (trace) {
        hier.setTraceSink(trace);
        core.setTraceSink(trace);
        if (engine)
            engine->setTraceSink(trace);
    }
    // Differential oracle: hash the committed stream (incl. warmup,
    // which is a timing distinction only — the committed instructions
    // are identical across techniques by construction).
    std::unique_ptr<StateDigest> digest;
    if (cfg.collect_digest) {
        digest = std::make_unique<StateDigest>(cfg.digest_interval);
        core.setDigest(digest.get());
    }

    SimResult res;
    res.workload = w.name;
    res.technique = technique;
    SampleSummary ss;
    uint64_t busy = 0;  // L1D MSHR-busy cycles of the measured spans
    {
        SelfProfiler::PhaseTimer pt =
            SelfProfiler::process().phase("simulate");
        auto t0 = std::chrono::steady_clock::now();
        CpuState state = w.init;
        Cycle clock = 0;
        for (uint64_t k = 0; k < schedule.size() && !state.halted; k++) {
            const Segment &seg = schedule[k];
            auto s0 = std::chrono::steady_clock::now();
            if (seg.kind != Segment::Kind::Detailed) {
                const uint64_t done = core.fastForward(
                    state, seg.insts, clock,
                    seg.kind == Segment::Kind::FfWarm);
                res.host_ff_seconds += secondsSince(s0);
                ss.ff_insts += done;
                if (seg.kind == Segment::Kind::Ff && done < seg.insts)
                    fatal("workload halted after " + std::to_string(done) +
                          " instructions, inside the --ff-insts " +
                          std::to_string(seg.insts) +
                          " prefix — nothing left to measure");
                continue;
            }
            // Measure from the end of the warm prefix; a plain run that
            // halts inside its --warmup is measured from its start.
            MemStats mem0 = hier.stats();
            uint64_t busy0 = hier.l1Mshrs().busyIntegral();
            bool warmed = seg.warm == 0;
            CoreStats win = core.runFrom(
                state, seg.insts, seg.warm, clock, [&] {
                    mem0 = hier.stats();
                    busy0 = hier.l1Mshrs().busyIntegral();
                    warmed = true;
                });
            res.host_detailed_seconds += secondsSince(s0);
            if (seg.window && !warmed)
                break;  // halted inside a SMARTS warm window: drop it
            res.core += win;
            res.mem += hier.stats().since(mem0, cfg.invariant_checks);
            busy += hier.l1Mshrs().busyIntegral() - busy0;
            if (!seg.window)
                continue;
            ss.warm_insts += seg.warm;
            // Only complete measure windows enter the CI: a halted tail
            // has different length and would bias the variance
            // estimate. The observation is the window's CPI — with
            // equal-length windows the mean of per-window CPIs is the
            // unbiased ratio estimate of the full run's CPI, which a
            // mean of per-window IPCs is not (SampleSummary docs).
            if (!state.halted && win.instructions == seg.insts - seg.warm) {
                double cpi = double(win.cycles) / double(win.instructions);
                ss.cpi_sum += cpi;
                ss.cpi_sumsq += cpi * cpi;
                ss.intervals++;
            }
        }
        res.host_seconds = secondsSince(t0);
    }
    SelfProfiler::process().addSimulated(res.core.instructions,
                                         res.core.cycles);
    res.mlp = res.core.cycles ? double(busy) / double(res.core.cycles)
                              : 0.0;
    if (p.sampling.enabled())
        res.sample = ss;
    if (auto *e = dynamic_cast<const PreEngine *>(engine.get()))
        res.pre = e->stats();
    if (auto *e = dynamic_cast<const VectorRunahead *>(engine.get()))
        res.vr = e->stats();
    if (auto *e = dynamic_cast<const DecoupledVectorRunahead *>(engine.get()))
        res.dvr = e->stats();
    if (digest) {
        DigestRecord d = digest->record();
        if (diverge) {
            // Deterministic divergence: the digest check (or a replay
            // of the resulting bundle) must flag this cell.
            for (size_t i = d.intervals.size() / 2;
                 i < d.intervals.size(); i++)
                d.intervals[i] ^= INJECT_POISON;
            d.final_digest ^= INJECT_POISON;
        }
        res.digest = std::move(d);
    }
    return res;
}

} // namespace

SimResult
simulate(const RunPoint &p, Workload &w, TraceSink *trace)
{
    return guarded(w.name, p.technique, [&] {
        start(p, trace);
        return execute(p, w, trace);
    });
}

SimResult
simulate(const RunPoint &p, WorkloadCache &cache, TraceSink *trace)
{
    return guarded(p.spec, p.technique, [&] {
        start(p, trace);
        // A private copy of the cached artifact, so this run's stores
        // cannot leak into sibling points.
        Workload w = cache.instantiate(p.spec, p.gscale, p.hscale);
        return execute(p, w, trace);
    });
}

std::vector<std::string>
gapBenchmarkSpecs()
{
    std::vector<std::string> specs;
    for (const auto &k : gapKernelNames())
        for (const char *in : {"KR", "LJN", "ORK", "TW", "UR"})
            specs.push_back(k + "/" + in);
    return specs;
}

std::vector<std::string>
allBenchmarkSpecs()
{
    std::vector<std::string> specs = gapBenchmarkSpecs();
    for (const auto &n : hpcDbNames())
        specs.push_back(n);
    return specs;
}

double
harmonicMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double inv = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            return 0.0;
        inv += 1.0 / v;
    }
    return double(values.size()) / inv;
}

void
printSpeedupTable(std::ostream &os,
                  const std::vector<std::string> &row_names,
                  const std::vector<std::string> &col_names,
                  const std::vector<std::vector<double>> &cells)
{
    os << std::left << std::setw(16) << "benchmark";
    for (const auto &c : col_names)
        os << std::right << std::setw(12) << c;
    os << "\n";
    for (size_t r = 0; r < row_names.size(); r++) {
        os << std::left << std::setw(16) << row_names[r];
        for (double v : cells[r])
            os << std::right << std::setw(12) << std::fixed
               << std::setprecision(3) << v;
        os << "\n";
    }
}

} // namespace vrsim
