/**
 * @file
 * Declarative experiment plans: a RunPlan names a grid (or union of
 * grids) of workload-spec × technique-column × config-variant points
 * with stable IDs, and a ResultTable holds the finished sweep for
 * rendering — figures (driver/figures.hh) and the vrsim CLI describe
 * *what* to run here and hand *how* to the SweepRunner
 * (sweep_runner.hh).
 */

#ifndef VRSIM_DRIVER_PLAN_HH
#define VRSIM_DRIVER_PLAN_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver/simulation.hh"

namespace vrsim
{

/**
 * One technique column of a plan: the engine to run, the label the
 * figure prints, and an optional DVR feature override for ablations
 * that split one technique into several columns.
 */
struct TechColumn
{
    Technique tech = Technique::OoO;
    std::string label;
    std::optional<DvrFeatures> features;

    TechColumn(Technique t) : tech(t), label(techniqueName(t)) {}
    TechColumn(Technique t, std::string l,
               std::optional<DvrFeatures> f = std::nullopt)
        : tech(t), label(std::move(l)), features(f)
    {}
};

/**
 * One configuration variant: a label ("rob=128") plus a tweak applied
 * to the plan's base SystemConfig. The base variant has an empty
 * label and no tweak.
 */
struct ConfigVariant
{
    std::string label;
    std::function<void(SystemConfig &)> tweak;

    static ConfigVariant base() { return ConfigVariant{}; }
};

/**
 * A declarative sweep description. Build it from grids:
 *
 *   RunPlan plan(cfg);
 *   plan.scale(gscale, hscale).roi(150'000).warmup(25'000)
 *       .add(allBenchmarkSpecs(),
 *            {Technique::OoO, Technique::Vr, Technique::Dvr});
 *
 * points() enumerates the grid in declaration order (grid-major,
 * then spec, then technique column, then variant), which fixes both
 * the point IDs and the deterministic result order of any sweep.
 */
class RunPlan
{
  public:
    explicit RunPlan(SystemConfig base_cfg = SystemConfig::benchScale())
        : base_(std::move(base_cfg))
    {}

    /** Input scales applied to every point (default: struct defaults). */
    RunPlan &
    scale(const GraphScale &g, const HpcDbScale &h)
    {
        gscale_ = g;
        hscale_ = h;
        return *this;
    }

    /** Region-of-interest instructions per run (after warmup). */
    RunPlan &
    roi(uint64_t insts)
    {
        roi_ = insts;
        return *this;
    }

    /** Warmup instructions excluded from statistics. */
    RunPlan &
    warmup(uint64_t insts)
    {
        warmup_ = insts;
        return *this;
    }

    /** Functional fast-forward prefix before every point's ROI. */
    RunPlan &
    ffInsts(uint64_t insts)
    {
        sampling_.ff_insts = insts;
        return *this;
    }

    /**
     * Fast-forward / interval-sampling plan applied to every point
     * (docs/sampling.md). Replaces any previously set ffInsts().
     */
    RunPlan &
    sample(const SamplingPlan &plan)
    {
        plan.validate();
        sampling_ = plan;
        return *this;
    }

    /**
     * Append a grid: every spec × column × variant combination. With
     * no variants the base configuration is used. Returns *this so
     * several grids can be unioned into one plan (and one sweep).
     */
    RunPlan &add(std::vector<std::string> specs,
                 std::vector<TechColumn> columns,
                 std::vector<ConfigVariant> variants = {});

    /**
     * Fault injection: points whose technique equals @p t raise the
     * given failure kind instead of (or, for Diverge, after) running
     * (the vrsim --inject-fail contract, used to test that a failing
     * point cannot poison its siblings and that each failure class
     * produces its repro bundle and exit code).
     */
    RunPlan &
    injectFail(Technique t, InjectKind kind = InjectKind::Panic,
               uint32_t arg = 0)
    {
        inject_fail_ = t;
        inject_kind_ = kind;
        inject_arg_ = arg;
        return *this;
    }

    /** What every point starts from: the base configuration (before
     *  any variant's tweak), the input scales and the budgets. */
    const SystemConfig &config() const { return base_; }
    const GraphScale &graphScale() const { return gscale_; }
    const HpcDbScale &hpcDbScale() const { return hscale_; }
    uint64_t roi() const { return roi_; }
    uint64_t warmup() const { return warmup_; }

    /** The resolved grid, in stable declaration order. */
    std::vector<RunPoint> points() const;

    /** Number of points without materializing them. */
    size_t size() const;

  private:
    struct Grid
    {
        std::vector<std::string> specs;
        std::vector<TechColumn> columns;
        std::vector<ConfigVariant> variants;
    };

    SystemConfig base_;
    GraphScale gscale_;
    HpcDbScale hscale_;
    uint64_t roi_ = 150'000;
    uint64_t warmup_ = 0;
    SamplingPlan sampling_;
    std::optional<Technique> inject_fail_;
    InjectKind inject_kind_ = InjectKind::Panic;
    uint32_t inject_arg_ = 0;
    std::vector<Grid> grids_;
};

/**
 * The finished sweep: points and their results in plan order. Lookup
 * is by (spec, column, variant); rendering code asks for exactly the
 * cells a figure needs and never re-runs anything.
 */
class ResultTable
{
  public:
    ResultTable() = default;
    ResultTable(std::vector<RunPoint> points,
                std::vector<SimResult> results);

    /** Result at (spec, column label, variant label); panics if absent. */
    const SimResult &at(const std::string &spec,
                        const std::string &column,
                        const std::string &variant = "") const;

    /** Convenience lookup by technique (column label = techniqueName). */
    const SimResult &
    at(const std::string &spec, Technique t,
       const std::string &variant = "") const
    {
        return at(spec, techniqueName(t), variant);
    }

    /** Null if the cell is not in the table. */
    const SimResult *find(const std::string &spec,
                          const std::string &column,
                          const std::string &variant = "") const;

    const std::vector<RunPoint> &points() const { return points_; }
    const std::vector<SimResult> &results() const { return results_; }
    size_t size() const { return points_.size(); }

    /** Number of failed (non-Ok) points. */
    size_t failures() const;

    /**
     * Write every result as a CSV sweep in plan order (deterministic
     * across job counts; see sweep_runner.hh).
     */
    void writeCsv(std::ostream &os) const;

  private:
    static std::string cellKey(const std::string &spec,
                               const std::string &column,
                               const std::string &variant);

    std::vector<RunPoint> points_;
    std::vector<SimResult> results_;
    std::map<std::string, size_t> index_;
};

} // namespace vrsim

#endif // VRSIM_DRIVER_PLAN_HH
