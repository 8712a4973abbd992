#include "driver/plan.hh"

#include "driver/report.hh"

namespace vrsim
{

RunPlan &
RunPlan::add(std::vector<std::string> specs,
             std::vector<TechColumn> columns,
             std::vector<ConfigVariant> variants)
{
    if (variants.empty())
        variants.push_back(ConfigVariant::base());
    grids_.push_back(Grid{std::move(specs), std::move(columns),
                          std::move(variants)});
    return *this;
}

std::vector<RunPoint>
RunPlan::points() const
{
    std::vector<RunPoint> pts;
    pts.reserve(size());
    for (const Grid &g : grids_) {
        for (const auto &spec : g.specs) {
            for (const TechColumn &col : g.columns) {
                for (const ConfigVariant &var : g.variants) {
                    RunPoint p{.spec = spec, .technique = col.tech,
                               .column = col.label, .variant = var.label,
                               .features = col.features, .cfg = base_,
                               .gscale = gscale_, .hscale = hscale_,
                               .max_insts = roi_ + warmup_,
                               .warmup = warmup_, .sampling = sampling_};
                    if (var.tweak)
                        var.tweak(p.cfg);
                    if (inject_fail_ && *inject_fail_ == col.tech) {
                        p.inject_kind = inject_kind_;
                        p.inject_arg = inject_arg_;
                    }
                    pts.push_back(std::move(p));
                }
            }
        }
    }
    return pts;
}

size_t
RunPlan::size() const
{
    size_t n = 0;
    for (const Grid &g : grids_)
        n += g.specs.size() * g.columns.size() * g.variants.size();
    return n;
}

ResultTable::ResultTable(std::vector<RunPoint> points,
                         std::vector<SimResult> results)
    : points_(std::move(points)), results_(std::move(results))
{
    panicIfNot(points_.size() == results_.size(),
               "result table: points/results size mismatch");
    for (size_t i = 0; i < points_.size(); i++) {
        const RunPoint &p = points_[i];
        bool inserted =
            index_.emplace(cellKey(p.spec, p.column, p.variant), i)
                .second;
        panicIfNot(inserted, "result table: duplicate point " + p.id());
    }
}

std::string
ResultTable::cellKey(const std::string &spec, const std::string &column,
                     const std::string &variant)
{
    return spec + "\x1f" + column + "\x1f" + variant;
}

const SimResult *
ResultTable::find(const std::string &spec, const std::string &column,
                  const std::string &variant) const
{
    auto it = index_.find(cellKey(spec, column, variant));
    return it == index_.end() ? nullptr : &results_[it->second];
}

const SimResult &
ResultTable::at(const std::string &spec, const std::string &column,
                const std::string &variant) const
{
    const SimResult *r = find(spec, column, variant);
    if (!r)
        panic("result table: no point " + spec + ":" + column +
              (variant.empty() ? "" : ":" + variant));
    return *r;
}

size_t
ResultTable::failures() const
{
    size_t n = 0;
    for (const SimResult &r : results_)
        if (!r.ok())
            n++;
    return n;
}

void
ResultTable::writeCsv(std::ostream &os) const
{
    CsvWriter writer(os);
    for (size_t i = 0; i < results_.size(); i++)
        writer.row(results_[i], points_[i].id());
}

} // namespace vrsim
