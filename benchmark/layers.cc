#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/ooo_core.hh"
#include "frontend/branch_predictor.hh"
#include "mem/hierarchy.hh"
#include "obs/stats_registry.hh"
#include "runahead/dvr.hh"
#include "runahead/pre.hh"
#include "runahead/vector_runahead.hh"

namespace vrbench
{

using namespace vrsim;

namespace
{

/** Calendar history slack the core keeps behind its dispatch point. */
constexpr Cycle RETIRE_SLACK = 8192;

/** PCs reach the hierarchy and predictor offset by one, as in OooCore. */
uint64_t
pcKey(uint32_t pc)
{
    return uint64_t(pc) + 1;
}

double
nsSince(Clock::time_point t0)
{
    return 1e9 * secondsSince(t0);
}

/** Forwards every hook to the real engine and times it. */
class TimedEngine final : public RunaheadEngine
{
  public:
    explicit TimedEngine(RunaheadEngine &inner) : inner_(inner) {}

    void
    onInstruction(const StepInfo &si, const CpuState &after,
                  Cycle cycle) override
    {
        auto t0 = Clock::now();
        inner_.onInstruction(si, after, cycle);
        ns += nsSince(t0);
        ++calls;
    }

    Cycle
    onFullRobStall(Cycle stall_start, Cycle head_fill,
                   const CpuState &frontier, TriggerKind kind) override
    {
        auto t0 = Clock::now();
        Cycle resume =
            inner_.onFullRobStall(stall_start, head_fill, frontier, kind);
        ns += nsSince(t0);
        ++calls;
        return resume;
    }

    const char *name() const override { return inner_.name(); }

    void setTraceSink(TraceSink *sink) override
    { inner_.setTraceSink(sink); }

    double ns = 0.0;
    uint64_t calls = 0;

  private:
    RunaheadEngine &inner_;
};

/** The engine runWorkload builds for @p t. */
std::unique_ptr<RunaheadEngine>
makeEngine(Technique t, const SystemConfig &cfg, Workload &w,
           MemoryHierarchy &hier)
{
    switch (t) {
      case Technique::Pre:
        return std::make_unique<PreEngine>(cfg, w.prog, w.image, hier);
      case Technique::Vr:
        return std::make_unique<VectorRunahead>(cfg, w.prog, w.image,
                                                hier);
      case Technique::DvrOffload:
        return std::make_unique<DecoupledVectorRunahead>(
            cfg, w.prog, w.image, hier, DvrFeatures::offloadOnly());
      case Technique::DvrDiscovery:
        return std::make_unique<DecoupledVectorRunahead>(
            cfg, w.prog, w.image, hier, DvrFeatures::withDiscovery());
      case Technique::Dvr:
        return std::make_unique<DecoupledVectorRunahead>(
            cfg, w.prog, w.image, hier, DvrFeatures::full());
      default:
        return nullptr;
    }
}

uint64_t
lanesSpawned(const RunaheadEngine *e)
{
    if (auto *vr = dynamic_cast<const VectorRunahead *>(e))
        return vr->stats().lanes_spawned;
    if (auto *dvr = dynamic_cast<const DecoupledVectorRunahead *>(e))
        return dvr->stats().lanes_spawned;
    return 0;
}

/** core.* counters, summed over @p windows. */
std::map<std::string, double>
coreCounters(const std::vector<CoreStats> &windows)
{
    std::map<std::string, double> out;
    for (const CoreStats &s : windows) {
        StatsRegistry reg;
        s.registerIn(reg);
        reg.visit([&](const StatNode &n) {
            if (n.kind() == StatKind::Counter)
                out[n.path()] += double(n.count());
        });
    }
    return out;
}

/** One cell re-run with its engine hooks timed. */
struct TracedCell
{
    std::vector<CoreStats> windows;
    std::optional<DigestRecord> digest;
    double seconds = 0.0;     //!< host time of the core run(s)
    double hook_ns = 0.0;
    uint64_t hook_calls = 0;
    uint64_t lanes = 0;
};

/** runWorkload's composition and execution paths, engine decorated. */
TracedCell
runTraced(const RunPoint &p, WorkloadCache &cache, bool collect_digest)
{
    Workload w = cache.instantiate(p.spec, p.gscale, p.hscale);
    SystemConfig cfg = p.cfg;
    cfg.technique = p.technique;
    MemoryHierarchy hier(cfg, w.image);
    if (p.technique == Technique::Imp)
        hier.enableImp();
    std::unique_ptr<RunaheadEngine> engine =
        makeEngine(p.technique, cfg, w, hier);
    std::optional<TimedEngine> timed;
    if (engine)
        timed.emplace(*engine);
    OooCore core(cfg, w.prog, w.image, hier, timed ? &*timed : nullptr);
    std::optional<StateDigest> digest;
    if (collect_digest) {
        digest.emplace(cfg.digest_interval);
        core.setDigest(&*digest);
    }

    TracedCell tc;
    const SamplingPlan &sp = p.sampling;
    auto t0 = Clock::now();
    if (!sp.enabled()) {
        tc.windows.push_back(core.run(w.init, p.max_insts, p.warmup));
    } else {
        CpuState state = w.init;
        Cycle clock = 0;
        if (sp.ff_insts)
            core.fastForward(state, sp.ff_insts, clock, /*warm=*/false);
        if (!sp.sampling()) {
            tc.windows.push_back(
                core.runFrom(state, p.max_insts, p.warmup, clock));
        } else {
            const uint64_t ff_per_period = sp.period - sp.detail - sp.warm;
            for (uint64_t k = 0;
                 k < p.max_insts / sp.period && !state.halted; k++) {
                if (ff_per_period) {
                    core.fastForward(state, ff_per_period, clock,
                                     /*warm=*/true);
                    if (state.halted)
                        break;
                }
                tc.windows.push_back(core.runFrom(
                    state, sp.warm + sp.detail, sp.warm, clock));
            }
        }
    }
    tc.seconds = secondsSince(t0);
    if (timed) {
        tc.hook_ns = timed->ns;
        tc.hook_calls = timed->calls;
    }
    tc.lanes = lanesSpawned(engine.get());
    if (digest)
        tc.digest = digest->record();
    return tc;
}

/** Every replayed result lands here so none is optimised away. */
volatile uint64_t replay_sink = 0;

/** Host cost per operation of each replayed layer, over all streams. */
struct ReplayCosts
{
    double step_ns = 0, ff_ns = 0, digest_ns = 0, bp_ns = 0;
    double access_ns = 0, warm_ns = 0, probes_per_access = 0;
};

/** Sums of time and operation counts, turned into ns per op. */
struct Tally
{
    double ns = 0;
    double ops = 0;
    double perOp() const { return ops ? ns / ops : 0.0; }
};

ReplayCosts
replay(const std::vector<Stream> &streams, const ResultTable &untraced,
       std::vector<std::string> &errors)
{
    Tally stepping, ff, digest, bp, access, warm;
    double probes = 0;
    uint64_t sink = 0;
    for (const Stream &s : streams) {
        const Program &prog = s.workload.prog;
        const uint64_t n = s.commits.size();
        const SystemConfig cfg = SystemConfig::benchScale();
        {
            MemoryImage img = s.start_image;
            CpuState st = s.start;
            auto t0 = Clock::now();
            for (uint64_t i = 0; i < n; i++)
                sink += step(prog, st, img).dst_value;
            stepping.ns += nsSince(t0);
            stepping.ops += double(n);
        }
        {
            MemoryImage img = s.start_image;
            CpuState st = s.start;
            auto t0 = Clock::now();
            sink += fastForward(prog, st, img, n);
            ff.ns += nsSince(t0);
            ff.ops += double(n);
        }
        {
            StateDigest d(cfg.digest_interval);
            auto t0 = Clock::now();
            for (const CommitRecord &cr : s.commits)
                d.retire(cr);
            digest.ns += nsSince(t0);
            digest.ops += double(n);
            sink += d.record().final_digest;
        }
        {
            BranchPredictor pred;
            auto t0 = Clock::now();
            for (const Stream::Branch &b : s.branches) {
                pred.predict(b.pc);
                pred.update(b.pc, b.taken);
            }
            bp.ns += nsSince(t0);
            bp.ops += double(s.branches.size());
            sink += pred.mispredicts();
        }
        {
            MemoryImage img = s.start_image;
            MemoryHierarchy hier(cfg, img);
            auto t0 = Clock::now();
            for (const Stream::Access &a : s.accesses)
                hier.warmAccess(a.addr, a.pc, Cycle(a.index + 1),
                                a.is_store);
            warm.ns += nsSince(t0);
            warm.ops += double(s.accesses.size());
        }
        {
            // Pace accesses at the spec's OoO CPI and retire calendar
            // history every 4096 instructions, as OooCore does, so the
            // replay times the steady-state path rather than a
            // backlog that grows without bound. Steady state is judged
            // on calendar probes per access: deterministic, and the
            // quantity a growing backlog inflates. (They fall while the
            // caches warm up; only growth is the trap.)
            const SimResult *ooo =
                untraced.find(s.spec, techniqueName(Technique::OoO));
            const double cpi = ooo && ooo->core.instructions
                ? double(ooo->core.cycles) /
                      double(ooo->core.instructions)
                : 1.0;
            MemoryImage img = s.start_image;
            MemoryHierarchy hier(cfg, img);
            constexpr size_t CHUNKS = 16;
            const size_t n_acc = s.accesses.size();
            std::vector<double> chunk_probes;
            uint64_t granule = ~0ull;
            for (size_t c = 0; c < CHUNKS; c++) {
                const size_t lo = n_acc * c / CHUNKS;
                const size_t hi = n_acc * (c + 1) / CHUNKS;
                const uint64_t probes0 = hier.calendarProbes();
                auto t0 = Clock::now();
                for (size_t k = lo; k < hi; k++) {
                    const Stream::Access &a = s.accesses[k];
                    if (a.index >> 12 != granule) {
                        granule = a.index >> 12;
                        const Cycle horizon =
                            Cycle(double(granule << 12) * cpi);
                        if (horizon > RETIRE_SLACK)
                            hier.retireHistory(horizon - RETIRE_SLACK);
                    }
                    hier.access(a.addr, a.pc, Cycle(double(a.index) * cpi),
                                a.is_store, Requester::Demand);
                }
                access.ns += nsSince(t0);
                const double p = double(hier.calendarProbes() - probes0);
                probes += p;
                if (hi > lo)
                    chunk_probes.push_back(p / double(hi - lo));
            }
            access.ops += double(n_acc);
            const size_t half = chunk_probes.size() / 2;
            const double first = median(std::vector<double>(
                chunk_probes.begin(), chunk_probes.begin() + half));
            const double second = median(std::vector<double>(
                chunk_probes.begin() + half, chunk_probes.end()));
            if (half && second > 1.2 * first)
                errors.push_back(
                    s.spec + ": mem.access replay is not in steady "
                    "state (" + std::to_string(first) + " calendar "
                    "probes per access in the first half, " +
                    std::to_string(second) + " in the second)");
        }
    }
    replay_sink = sink;
    ReplayCosts c;
    c.step_ns = stepping.perOp();
    c.ff_ns = ff.perOp();
    c.digest_ns = digest.perOp();
    c.bp_ns = bp.perOp();
    c.access_ns = access.perOp();
    c.warm_ns = warm.perOp();
    c.probes_per_access = access.ops ? probes / access.ops : 0.0;
    return c;
}

/**
 * What the replayed per-op costs predict a cell's host time to be,
 * from its own instruction, branch and access counts, plus its
 * measured engine-hook time.
 */
double
predictedNs(const RunPoint &p, const SimResult &r, const TracedCell &tc,
            const ReplayCosts &c, bool digest_on)
{
    const double n = double(r.core.instructions);
    const double mem_rate =
        n ? double(r.core.loads + r.core.stores) / n : 0.0;
    const double br_rate = n ? double(r.core.branches) / n : 0.0;
    const double access_rate =
        p.technique == Technique::Oracle ? 0.0 : mem_rate;
    const double dig = digest_on ? c.digest_ns : 0.0;
    const double plain_ff = r.ok() ? double(p.sampling.ff_insts) : 0.0;
    const double warm_ff = double(ffInsts(r)) - plain_ff;
    return tc.hook_ns +
           double(detailedInsts(p, r)) *
               (c.step_ns + br_rate * c.bp_ns +
                access_rate * c.access_ns + dig) +
           plain_ff * (c.ff_ns + dig) +
           warm_ff * (c.step_ns + br_rate * c.bp_ns +
                      mem_rate * c.warm_ns + dig);
}

} // namespace

std::vector<Stream>
captureStreams(const BenchWorkload &w, WorkloadCache &cache,
               uint64_t insts)
{
    std::vector<Stream> out;
    for (const auto &spec : w.specs) {
        Stream s;
        s.spec = spec;
        s.workload = cache.instantiate(spec, w.gscale, w.hscale);
        CpuState st = s.workload.init;
        fastForward(s.workload.prog, st, s.workload.image,
                    w.sampling.ff_insts);
        s.start = st;
        s.start_image = s.workload.image;
        s.commits.reserve(insts);
        while (s.commits.size() < insts && !st.halted) {
            const StepInfo si = step(s.workload.prog, st, s.workload.image);
            if (si.is_branch && si.inst->isCondBranch())
                s.branches.push_back({pcKey(si.pc), si.taken});
            if (si.is_mem && si.size)
                s.accesses.push_back(
                    {s.commits.size(), si.addr, pcKey(si.pc), si.is_store});
            s.commits.push_back(commitRecordOf(si));
        }
        s.workload.image = MemoryImage{};
        out.push_back(std::move(s));
    }
    return out;
}

Metrics
traceRound(const BenchWorkload &w, WorkloadCache &cache,
           const ResultTable &untraced, double sweep_s,
           const std::vector<Stream> &streams,
           std::vector<std::string> &errors)
{
    Metrics m;
    const auto &points = untraced.points();
    const auto &results = untraced.results();

    // Driver and core: the untraced sweep's own host times.
    double cells_s = 0, ff_s = 0, detailed_s = 0;
    std::map<std::string, std::pair<double, double>> per_tech;
    for (size_t i = 0; i < points.size(); i++) {
        const SimResult &r = results[i];
        cells_s += r.host_seconds;
        ff_s += r.host_ff_seconds;
        detailed_s += r.host_detailed_seconds;
        auto &[sec, insts] = per_tech[points[i].column];
        sec += r.host_detailed_seconds;
        insts += double(detailedInsts(points[i], r));
    }
    m["driver.cells_s"] = {cells_s, "s"};
    m["driver.overhead_s"] = {sweep_s - cells_s, "s"};
    m["core.ff_s"] = {ff_s, "s"};
    m["core.detailed_s"] = {detailed_s, "s"};
    for (const auto &[tech, st] : per_tech)
        m["core.ns_per_inst." + tech] = {
            st.second ? 1e9 * st.first / st.second : 0.0, "ns/inst"};

    // Runahead: every cell again, engine hooks timed.
    std::vector<TracedCell> traced;
    for (size_t i = 0; i < points.size(); i++) {
        const RunPoint &p = points[i];
        const SimResult &r = results[i];
        TracedCell tc = runTraced(p, cache, w.check_digests);
        if (r.ok() &&
            coreCounters(tc.windows) != coreCounters({r.core}))
            errors.push_back(p.id() + ": traced core.* stats differ "
                                      "from the untraced cell");
        if (r.ok() && tc.digest != r.digest)
            errors.push_back(p.id() + ": traced digest differs from "
                                      "the untraced cell");
        traced.push_back(std::move(tc));
    }
    double hook_ns = 0, traced_s = 0, lane_ns = 0, lanes = 0;
    uint64_t calls = 0;
    for (const TracedCell &tc : traced) {
        hook_ns += tc.hook_ns;
        calls += tc.hook_calls;
        traced_s += tc.seconds;
        if (tc.lanes) {
            lane_ns += tc.hook_ns;
            lanes += double(tc.lanes);
        }
    }
    m["runahead.calls"] = {double(calls), "count"};
    m["runahead.s"] = {hook_ns / 1e9, "s"};
    m["runahead.share"] = {traced_s ? hook_ns / 1e9 / traced_s : 0.0,
                           "ratio"};
    m["runahead.ns_per_lane"] = {lanes ? lane_ns / lanes : 0.0, "ns/lane"};
    m["trace.overhead_pct"] = {
        cells_s ? 100.0 * (traced_s - cells_s) / cells_s : 0.0, "%"};

    // isa, digest, frontend, mem: the captured streams replayed alone.
    ReplayCosts c = replay(streams, untraced, errors);
    m["isa.step_ns"] = {c.step_ns, "ns/inst"};
    m["isa.ff_ns"] = {c.ff_ns, "ns/inst"};
    m["sim.digest_ns"] = {c.digest_ns, "ns/inst"};
    m["frontend.bp_ns"] = {c.bp_ns, "ns/branch"};
    m["mem.access_ns"] = {c.access_ns, "ns/access"};
    m["mem.warm_access_ns"] = {c.warm_ns, "ns/access"};
    m["sim.calendar_probes_per_access"] = {c.probes_per_access,
                                           "probes/access"};

    double predicted_ns = 0;
    for (size_t i = 0; i < points.size(); i++)
        predicted_ns += predictedNs(points[i], results[i], traced[i], c,
                                    w.check_digests);
    m["trace.coverage"] = {traced_s ? predicted_ns / 1e9 / traced_s : 0.0,
                           "ratio"};
    return m;
}

} // namespace vrbench
