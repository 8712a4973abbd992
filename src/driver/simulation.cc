#include "driver/simulation.hh"

#include <chrono>
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

SimResult
runGuarded(const std::string &workload_name, Technique technique,
           const std::function<SimResult()> &body)
{
    SimResult failed;
    failed.workload = workload_name;
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

namespace
{

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0).count();
}

} // namespace

SimResult
runWorkload(Workload &w, Technique technique, SystemConfig cfg,
            uint64_t max_insts, uint64_t warmup_insts,
            const DvrFeatures *dvr_features, TraceSink *trace,
            const SamplingPlan &sampling)
{
    cfg.technique = technique;
    const SegmentSchedule schedule(
        max_insts ? max_insts : w.suggested_insts, warmup_insts, sampling);
    MemoryHierarchy hier(cfg, w.image);
    if (technique == Technique::Imp)
        hier.enableImp();

    std::unique_ptr<RunaheadEngine> engine;
    PreEngine *pre = nullptr;
    VectorRunahead *vr = nullptr;
    DecoupledVectorRunahead *dvr = nullptr;
    switch (technique) {
      case Technique::Pre: {
        auto e = std::make_unique<PreEngine>(cfg, w.prog, w.image, hier);
        pre = e.get();
        engine = std::move(e);
        break;
      }
      case Technique::Vr: {
        auto e = std::make_unique<VectorRunahead>(cfg, w.prog, w.image,
                                                  hier);
        vr = e.get();
        engine = std::move(e);
        break;
      }
      case Technique::DvrOffload:
      case Technique::DvrDiscovery:
      case Technique::Dvr: {
        DvrFeatures f = technique == Technique::DvrOffload
            ? DvrFeatures::offloadOnly()
            : technique == Technique::DvrDiscovery
                ? DvrFeatures::withDiscovery()
                : DvrFeatures::full();
        if (dvr_features)
            f = *dvr_features;
        auto e = std::make_unique<DecoupledVectorRunahead>(
            cfg, w.prog, w.image, hier, f);
        dvr = e.get();
        engine = std::move(e);
        break;
      }
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
    if (sampling.enabled())
        res.sample = ss;
    if (pre)
        res.pre = pre->stats();
    if (vr)
        res.vr = vr->stats();
    if (dvr)
        res.dvr = dvr->stats();
    if (digest)
        res.digest = digest->record();
    return res;
}

SimResult
runSimulation(const std::string &spec, Technique technique,
              SystemConfig cfg, const GraphScale &gscale,
              const HpcDbScale &hscale, uint64_t max_insts,
              uint64_t warmup_insts)
{
    Workload w = makeWorkload(spec, gscale, hscale);
    return runWorkload(w, technique, cfg, max_insts, warmup_insts);
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
