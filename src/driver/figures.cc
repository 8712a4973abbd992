#include "driver/figures.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <iomanip>

#include "runahead/hardware_budget.hh"
#include "workloads/graph.hh"

namespace vrsim
{
namespace
{

/** printf into @p os; the figures' column formats are printf specs. */
[[gnu::format(printf, 2, 3)]] void
outf(std::ostream &os, const char *fmt, ...)
{
    va_list ap, again;
    va_start(ap, fmt);
    va_copy(again, ap);
    std::string s(size_t(std::vsnprintf(nullptr, 0, fmt, ap)), '\0');
    va_end(ap);
    std::vsnprintf(s.data(), s.size() + 1, fmt, again);
    va_end(again);
    os << s;
}

/** The five GAP kernels on the KR input, then the eight hpc-db kernels. */
std::vector<std::string>
krAndHpcDbSpecs()
{
    std::vector<std::string> specs;
    for (const auto &k : gapKernelNames())
        specs.push_back(k + "/KR");
    for (const auto &n : hpcDbNames())
        specs.push_back(n);
    return specs;
}

/** One config variant per value of a swept parameter. */
std::vector<ConfigVariant>
variants(const std::vector<uint32_t> &values, std::string (*label)(uint32_t),
         void (*set)(SystemConfig &, uint32_t))
{
    std::vector<ConfigVariant> out;
    for (uint32_t v : values)
        out.push_back({label(v), [set, v](SystemConfig &c) { set(c, v); }});
    return out;
}

const std::vector<uint32_t> ROBS = {128, 192, 224, 350, 512};

std::string
robLabel(uint32_t rob)
{
    return "rob=" + std::to_string(rob);
}

std::vector<ConfigVariant>
robVariants()
{
    return variants(ROBS, robLabel, [](SystemConfig &c, uint32_t rob) {
        c.core.rob_size = rob;
    });
}

/**
 * One row per spec and one column per technique, plus a summary row
 * (@p summary over each column). @p cell maps a run and its OoO
 * baseline to the printed value.
 */
void
printPerSpecTable(std::ostream &os, const ResultTable &table,
                  const std::vector<std::string> &specs,
                  const std::vector<Technique> &techs,
                  const std::vector<std::string> &cols,
                  const std::string &summary_name,
                  double (*summary)(const std::vector<double> &),
                  double (*cell)(const SimResult &r, const SimResult &base))
{
    std::vector<std::string> rows;
    std::vector<std::vector<double>> cells;
    std::vector<std::vector<double>> per_tech(techs.size());
    for (const std::string &spec : specs) {
        const SimResult &base = table.at(spec, Technique::OoO);
        std::vector<double> row;
        for (size_t t = 0; t < techs.size(); t++) {
            double x = cell(table.at(spec, techs[t]), base);
            row.push_back(x);
            per_tech[t].push_back(x);
        }
        rows.push_back(spec);
        cells.push_back(row);
    }
    std::vector<double> summary_row;
    for (const auto &v : per_tech)
        summary_row.push_back(summary(v));
    rows.push_back(summary_name);
    cells.push_back(summary_row);
    printSpeedupTable(os, rows, cols, cells);
}

double
speedup(const SimResult &r, const SimResult &base)
{
    return base.ipc() > 0 ? r.ipc() / base.ipc() : 0;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return sum / double(v.size());
}

// ---- Table 2: the graph inputs, with node/edge counts and LLC MPKI
// aggregated over the five kernels on the OoO baseline. The shape
// columns come from building each graph directly.

const GraphInput GRAPH_INPUTS[] = {GraphInput::Kron, GraphInput::Ljn,
                                   GraphInput::Ork, GraphInput::Tw,
                                   GraphInput::Ur};

void
planTable2(RunPlan &plan)
{
    std::vector<std::string> specs;
    for (GraphInput in : GRAPH_INPUTS)
        for (const auto &k : gapKernelNames())
            specs.push_back(k + "/" + graphInputName(in));
    plan.add(specs, {Technique::OoO});
}

void
renderTable2(std::ostream &os, const RunPlan &plan, const ResultTable &table)
{
    os << "input    nodes      edges      max-deg   LLC-MPKI\n";
    for (GraphInput in : GRAPH_INPUTS) {
        Graph g = makeGraph(in, plan.graphScale());
        uint64_t max_deg = 0;
        for (uint64_t v = 0; v < g.num_nodes; v++)
            max_deg = std::max(max_deg, g.degree(v));

        uint64_t misses = 0, insts = 0;
        for (const auto &k : gapKernelNames()) {
            const SimResult &r = table.at(k + "/" + graphInputName(in),
                                          Technique::OoO);
            misses += r.mem.demand_mem;
            insts += r.core.instructions;
        }
        double mpki = insts ? 1000.0 * double(misses) / double(insts)
                            : 0.0;
        outf(os, "%-8s %-10llu %-10llu %-9llu %.1f\n",
             graphInputName(in).c_str(), (unsigned long long)g.num_nodes,
             (unsigned long long)g.num_edges, (unsigned long long)max_deg,
             mpki);
    }
}

// ---- Figure 2: OoO and VR against ROB size on the KR and UR inputs
// (the paper's extremes), normalized to the OoO-350 baseline, plus the
// share of cycles stalled on a full window. VR's benefit shrinks as the
// ROB grows because its full-ROB trigger becomes rare.

std::vector<std::string>
krAndUrSpecs()
{
    std::vector<std::string> specs;
    for (const auto &k : gapKernelNames()) {
        specs.push_back(k + "/KR");
        specs.push_back(k + "/UR");
    }
    return specs;
}

void
planFig2(RunPlan &plan)
{
    plan.add(krAndUrSpecs(), {Technique::OoO, Technique::Vr},
             robVariants());
}

void
renderFig2(std::ostream &os, const RunPlan &, const ResultTable &table)
{
    const std::vector<std::string> specs = krAndUrSpecs();
    os << "rows: ROB size; cells: h-mean speedup vs OoO-350, "
          "and %cycles dispatch-stalled on full ROB (OoO)\n\n";
    os << "ROB     OoO-IPCn    VR-IPCn     VR/OoO      robstall%\n";

    std::vector<double> base_ipc;
    for (const auto &s : specs)
        base_ipc.push_back(table.at(s, Technique::OoO, robLabel(350)).ipc());

    for (uint32_t rob : ROBS) {
        std::vector<double> ooo_n, vr_n;
        double stall_frac = 0;
        for (size_t i = 0; i < specs.size(); i++) {
            const SimResult &o =
                table.at(specs[i], Technique::OoO, robLabel(rob));
            const SimResult &v =
                table.at(specs[i], Technique::Vr, robLabel(rob));
            ooo_n.push_back(o.ipc() / base_ipc[i]);
            vr_n.push_back(v.ipc() / base_ipc[i]);
            stall_frac += o.core.cycles
                ? double(o.core.rob_stall_cycles + o.core.stall_lq) /
                      double(o.core.cycles)
                : 0.0;
        }
        outf(os, "%-7u %-11.3f %-11.3f %-11.3f %.1f\n", rob,
             harmonicMean(ooo_n), harmonicMean(vr_n),
             harmonicMean(vr_n) / harmonicMean(ooo_n),
             100.0 * stall_frac / double(specs.size()));
    }
}

// ---- Figure 7: speedup of PRE, IMP, VR, DVR and Oracle over OoO on
// every benchmark-input combination, with harmonic means, followed by
// the §4.4 hardware budget behind the "1139 bytes" claim.

void
planFig7(RunPlan &plan)
{
    plan.add(allBenchmarkSpecs(),
             {Technique::OoO, Technique::Pre, Technique::Imp,
              Technique::Vr, Technique::Dvr, Technique::Oracle});
}

void
renderFig7(std::ostream &os, const RunPlan &plan, const ResultTable &table)
{
    const std::vector<Technique> techs = {
        Technique::Pre, Technique::Imp, Technique::Vr, Technique::Dvr,
        Technique::Oracle,
    };
    std::vector<std::string> cols;
    for (Technique t : techs)
        cols.push_back(techniqueName(t));
    printPerSpecTable(os, table, allBenchmarkSpecs(), techs, cols, "H-mean",
                      harmonicMean, speedup);

    os << "\nDVR hardware budget (paper: 1139 bytes):\n";
    printHardwareBudget(os, computeHardwareBudget(plan.config().runahead));
}

// ---- Figure 8: DVR's factor breakdown — base VR, +Offload to the
// decoupled subthread, +Discovery Mode, +Nested Runahead Mode — over
// OoO.

void
planFig8(RunPlan &plan)
{
    plan.add(krAndHpcDbSpecs(),
             {Technique::OoO, Technique::Vr, Technique::DvrOffload,
              Technique::DvrDiscovery, Technique::Dvr});
}

void
renderFig8(std::ostream &os, const RunPlan &, const ResultTable &table)
{
    printPerSpecTable(os, table, krAndHpcDbSpecs(),
                      {Technique::Vr, Technique::DvrOffload,
                       Technique::DvrDiscovery, Technique::Dvr},
                      {"VR", "+Offload", "+Discovery", "+Nested"}, "H-mean",
                      harmonicMean, speedup);
}

/** Figures 9 and 10 compare OoO, VR and DVR on GAP/KR and hpc-db. */
void
planOooVrDvr(RunPlan &plan)
{
    plan.add(krAndHpcDbSpecs(),
             {Technique::OoO, Technique::Vr, Technique::Dvr});
}

// ---- Figure 9: memory-level parallelism, the mean number of L1D
// MSHRs occupied per cycle (paper: < 4 for OoO, > 10 for DVR).

void
renderFig9(std::ostream &os, const RunPlan &, const ResultTable &table)
{
    printPerSpecTable(os, table, krAndHpcDbSpecs(),
                      {Technique::OoO, Technique::Vr, Technique::Dvr},
                      {"OoO", "VR", "DVR"}, "mean", mean,
                      [](const SimResult &r, const SimResult &) {
                          return r.mlp;
                      });
}

// ---- Figure 10: accuracy and coverage, DRAM fills over OoO's split
// into main-thread and runahead shares. VR over-fetches; DVR's
// Discovery Mode keeps the total near 1x while moving fills into
// runahead.

void
renderFig10(std::ostream &os, const RunPlan &, const ResultTable &table)
{
    const std::vector<std::string> specs = krAndHpcDbSpecs();
    os << std::left << std::setw(16) << "benchmark" << std::right
       << std::setw(10) << "VR-main" << std::setw(10) << "VR-ra"
       << std::setw(10) << "VR-tot" << std::setw(10) << "DVR-main"
       << std::setw(10) << "DVR-ra" << std::setw(10) << "DVR-tot" << "\n";

    double vr_tot_sum = 0, dvr_tot_sum = 0;
    for (const auto &spec : specs) {
        const SimResult &base = table.at(spec, Technique::OoO);
        double denom = double(std::max<uint64_t>(1, base.mem.dramTotal()));
        const SimResult &vr = table.at(spec, Technique::Vr);
        const SimResult &dvr = table.at(spec, Technique::Dvr);

        double vm = vr.dramMain() / denom;
        double vr_ra = vr.dramRunahead() / denom;
        double dm = dvr.dramMain() / denom;
        double dvr_ra = dvr.dramRunahead() / denom;
        vr_tot_sum += vm + vr_ra;
        dvr_tot_sum += dm + dvr_ra;

        outf(os, "%-16s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f\n",
             spec.c_str(), vm, vr_ra, vm + vr_ra, dm, dvr_ra, dm + dvr_ra);
    }
    outf(os, "%-16s %29.2f %29.2f\n", "mean-total",
         vr_tot_sum / double(specs.size()),
         dvr_tot_sum / double(specs.size()));
}

// ---- Figure 11: timeliness, where the main thread finds the lines
// the DVR subthread prefetched: L1-D, L2, L3 or "off-chip" (still in
// flight, or evicted before use).

void
planFig11(RunPlan &plan)
{
    plan.add(krAndHpcDbSpecs(), {Technique::Dvr});
}

void
renderFig11(std::ostream &os, const RunPlan &, const ResultTable &table)
{
    os << std::left << std::setw(16) << "benchmark" << std::right
       << std::setw(10) << "L1%" << std::setw(10) << "L2%" << std::setw(10)
       << "L3%" << std::setw(12) << "off-chip%" << "\n";

    for (const auto &spec : krAndHpcDbSpecs()) {
        const MemStats &m = table.at(spec, Technique::Dvr).mem;
        double total = double(std::max<uint64_t>(1, m.pf_lines_filled));
        double l1 = 100.0 * m.pf_used_l1 / total;
        double l2 = 100.0 * m.pf_used_l2 / total;
        double l3 = 100.0 * m.pf_used_l3 / total;
        // Lines can be found in L2/L3 copies whose L1 fill was never
        // counted (inclusive hierarchy), so clamp at zero.
        double off = std::max(0.0, 100.0 - l1 - l2 - l3);
        outf(os, "%-16s %9.1f %9.1f %9.1f %11.1f\n", spec.c_str(), l1, l2,
             l3, off);
    }
}

// ---- Figure 12: DVR against ROB size, normalized to the OoO-350
// baseline. Unlike VR's (Fig. 2), DVR's gain holds and grows with the
// ROB because its trigger does not wait for a full window.

void
planFig12(RunPlan &plan)
{
    plan.add(krAndHpcDbSpecs(), {Technique::OoO, Technique::Dvr},
             robVariants());
}

void
renderFig12(std::ostream &os, const RunPlan &, const ResultTable &table)
{
    const std::vector<std::string> specs = krAndHpcDbSpecs();
    std::vector<double> base_ipc;
    for (const auto &s : specs)
        base_ipc.push_back(table.at(s, Technique::OoO, robLabel(350)).ipc());

    os << "ROB     OoO-IPCn    DVR-IPCn    DVR/OoO\n";
    for (uint32_t rob : ROBS) {
        std::vector<double> ooo_n, dvr_n, ratio;
        for (size_t i = 0; i < specs.size(); i++) {
            const SimResult &o =
                table.at(specs[i], Technique::OoO, robLabel(rob));
            const SimResult &d =
                table.at(specs[i], Technique::Dvr, robLabel(rob));
            ooo_n.push_back(o.ipc() / base_ipc[i]);
            dvr_n.push_back(d.ipc() / base_ipc[i]);
            ratio.push_back(d.ipc() / o.ipc());
        }
        outf(os, "%-7u %-11.3f %-11.3f %.3f\n", rob, harmonicMean(ooo_n),
             harmonicMean(dvr_n), harmonicMean(ratio));
    }
}

// ---- §3(2): VR's delayed termination stalls commit (paper: 7.1% of
// execution time on average, up to 11.8%). Commit-stall share and
// runahead episodes per benchmark.

void
planDelayedTermination(RunPlan &plan)
{
    plan.add(krAndHpcDbSpecs(), {Technique::Vr});
}

void
renderDelayedTermination(std::ostream &os, const RunPlan &,
                         const ResultTable &table)
{
    const std::vector<std::string> specs = krAndHpcDbSpecs();
    os << std::left << std::setw(16) << "benchmark" << std::right
       << std::setw(12) << "episodes" << std::setw(14) << "stall-cycles"
       << std::setw(10) << "stall%" << "\n";

    double sum = 0;
    for (const auto &spec : specs) {
        const SimResult &r = table.at(spec, Technique::Vr);
        double frac = r.core.cycles
            ? 100.0 * double(r.core.runahead_commit_stall) /
                  double(r.core.cycles)
            : 0.0;
        sum += frac;
        outf(os, "%-16s %11llu %13llu %9.1f\n", spec.c_str(),
             (unsigned long long)r.core.full_rob_stall_events,
             (unsigned long long)r.core.runahead_commit_stall, frac);
    }
    outf(os, "%-16s %33s %9.1f\n", "mean", "", sum / double(specs.size()));
}

// ---- Vector width (paper §6.1): DVR with 32 to 256 scalar-equivalent
// lanes, made by scaling the number of vector registers (wider DVR
// needs a larger VRAT). The paper expects NAS-CG/NAS-IS to need 256
// lanes to approach the Oracle. OoO and Oracle run once per spec.

const std::vector<uint32_t> LANES = {32, 64, 128, 256};
const std::vector<std::string> WIDTH_SPECS = {
    "nas-cg", "nas-is", "camel", "kangaroo", "bfs/KR", "sssp/KR"};

std::string
laneLabel(uint32_t lanes)
{
    return std::to_string(lanes) + "ln";
}

void
planVectorWidth(RunPlan &plan)
{
    plan.add(WIDTH_SPECS, {Technique::Dvr},
             variants(LANES, laneLabel, [](SystemConfig &c, uint32_t w) {
                 c.runahead.vector_regs = w / c.runahead.lanes_per_vector;
             }));
    plan.add(WIDTH_SPECS, {Technique::OoO, Technique::Oracle});
}

void
renderVectorWidth(std::ostream &os, const RunPlan &, const ResultTable &table)
{
    os << std::left << std::setw(16) << "benchmark";
    for (uint32_t w : LANES)
        os << std::right << std::setw(10) << laneLabel(w);
    os << std::right << std::setw(10) << "Oracle" << "\n";

    for (const auto &spec : WIDTH_SPECS) {
        const SimResult &base = table.at(spec, Technique::OoO);
        outf(os, "%-16s", spec.c_str());
        for (uint32_t w : LANES) {
            const SimResult &r = table.at(spec, Technique::Dvr, laneLabel(w));
            outf(os, "%10.3f", r.ipc() / base.ipc());
        }
        const SimResult &orc = table.at(spec, Technique::Oracle);
        outf(os, "%10.3f\n", orc.ipc() / base.ipc());
    }
}

// ---- L1D MSHRs: DVR's MLP is bounded by the MSHRs (Table 1: 24).
// Speedup and achieved MLP at 8/16/24/48; the OoO baseline is re-run
// per count because its IPC depends on it.

const std::vector<uint32_t> MSHRS = {8, 16, 24, 48};
const std::vector<std::string> MSHR_SPECS = {"bfs/KR", "sssp/KR", "camel",
                                             "kangaroo", "hj8"};

std::string
mshrLabel(uint32_t m)
{
    return "mshrs=" + std::to_string(m);
}

void
planMshrs(RunPlan &plan)
{
    plan.add(MSHR_SPECS, {Technique::OoO, Technique::Dvr},
             variants(MSHRS, mshrLabel,
                      [](SystemConfig &c, uint32_t m) { c.l1d.mshrs = m; }));
}

void
renderMshrs(std::ostream &os, const RunPlan &, const ResultTable &table)
{
    os << std::left << std::setw(16) << "benchmark";
    for (uint32_t m : MSHRS)
        os << std::right << std::setw(9) << (std::to_string(m) + "sp")
           << std::setw(9) << (std::to_string(m) + "mlp");
    os << "\n";

    for (const auto &spec : MSHR_SPECS) {
        outf(os, "%-16s", spec.c_str());
        for (uint32_t m : MSHRS) {
            const SimResult &base =
                table.at(spec, Technique::OoO, mshrLabel(m));
            const SimResult &r = table.at(spec, Technique::Dvr, mshrLabel(m));
            outf(os, "%9.3f %8.1f", r.ipc() / base.ipc(), r.mlp);
        }
        outf(os, "\n");
    }
}

// ---- Software prefetching (paper §7.3): camel hand-augmented with
// staged software prefetches (Ainsworth & Jones, CGO 2017) against
// the microarchitectural techniques. camel-swpf runs only under OoO
// and DVR, hence two grids.

void
planSwPrefetch(RunPlan &plan)
{
    plan.add({"camel"}, {Technique::OoO, Technique::Vr, Technique::Dvr});
    plan.add({"camel-swpf"}, {Technique::OoO, Technique::Dvr});
}

void
renderSwPrefetch(std::ostream &os, const RunPlan &, const ResultTable &table)
{
    const SimResult &base = table.at("camel", Technique::OoO);
    const SimResult &sw = table.at("camel-swpf", Technique::OoO);
    const SimResult &vr = table.at("camel", Technique::Vr);
    const SimResult &dvr = table.at("camel", Technique::Dvr);
    const SimResult &both = table.at("camel-swpf", Technique::Dvr);

    // Software prefetching adds µops, so compare per-element time:
    // camel does 33 µops/element, camel-swpf ~48.
    double base_cpe = double(base.core.cycles) / base.core.instructions
                      * 33.0;
    double sw_cpe = double(sw.core.cycles) / sw.core.instructions * 48.0;
    double both_cpe = double(both.core.cycles) / both.core.instructions
                      * 48.0;
    outf(os, "camel        OoO   %8.1f cycles/elem (IPC %.3f)\n", base_cpe,
         base.ipc());
    outf(os,
         "camel-swpf   OoO   %8.1f cycles/elem (IPC %.3f)  -> %.2fx\n",
         sw_cpe, sw.ipc(), base_cpe / sw_cpe);
    outf(os, "camel        VR    speedup %.2fx\n", vr.ipc() / base.ipc());
    outf(os, "camel        DVR   speedup %.2fx\n", dvr.ipc() / base.ipc());
    outf(os,
         "camel-swpf   DVR   %8.1f cycles/elem  -> %.2fx (SW+DVR compose)\n",
         both_cpe, base_cpe / both_cpe);
}

// ---- Divergence handling (§4.2.3, Key Insight #5): DVR with GPU-style
// reconvergence against VR-style lane invalidation, on workloads with
// data-dependent control flow inside the chain. The two DVR flavours
// are columns with a DvrFeatures override.

const std::vector<std::string> RECONV_SPECS = {"bc/KR", "bfs/KR", "sssp/KR",
                                               "hj2",   "hj8",    "graph500"};

void
planReconvergence(RunPlan &plan)
{
    DvrFeatures inval = DvrFeatures::full();
    inval.reconverge = false;
    plan.add(RECONV_SPECS,
             {Technique::OoO, TechColumn(Technique::Dvr, "invalidate", inval),
              TechColumn(Technique::Dvr, "reconverge", DvrFeatures::full())});
}

void
renderReconvergence(std::ostream &os, const RunPlan &,
                    const ResultTable &table)
{
    os << std::left << std::setw(12) << "benchmark" << std::right
       << std::setw(14) << "invalidate" << std::setw(14) << "reconverge"
       << std::setw(12) << "divergences" << "\n";

    for (const auto &spec : RECONV_SPECS) {
        const SimResult &base = table.at(spec, Technique::OoO);
        const SimResult &a = table.at(spec, "invalidate");
        const SimResult &b = table.at(spec, "reconverge");
        // A failed run (kept under --keep-going) has no DVR stats.
        outf(os, "%-12s %13.3f %13.3f %11llu\n", spec.c_str(),
             a.ipc() / base.ipc(), b.ipc() / base.ipc(),
             (unsigned long long)(b.dvr ? b.dvr->divergences : 0));
    }
}

// ---- Stride detector (RPT) entries: the paper budgets 32 (460 bytes).
// Kernels with several concurrent stride streams thrash small tables
// and lose triggers. OoO ignores the RPT, so it runs once per spec.

const std::vector<uint32_t> RPT_ENTRIES = {4, 8, 16, 32, 64};
const std::vector<std::string> RPT_SPECS = {"bfs/KR", "sssp/KR", "nas-cg",
                                            "camel", "graph500"};

std::string
rptLabel(uint32_t n)
{
    return std::to_string(n) + "e";
}

void
planStrideDetector(RunPlan &plan)
{
    plan.add(RPT_SPECS, {Technique::Dvr},
             variants(RPT_ENTRIES, rptLabel, [](SystemConfig &c, uint32_t n) {
                 c.runahead.stride_entries = n;
             }));
    plan.add(RPT_SPECS, {Technique::OoO});
}

void
renderStrideDetector(std::ostream &os, const RunPlan &,
                     const ResultTable &table)
{
    os << std::left << std::setw(12) << "benchmark";
    for (uint32_t n : RPT_ENTRIES)
        os << std::right << std::setw(10) << rptLabel(n);
    os << "\n";

    for (const auto &spec : RPT_SPECS) {
        const SimResult &base = table.at(spec, Technique::OoO);
        outf(os, "%-12s", spec.c_str());
        for (uint32_t n : RPT_ENTRIES)
            outf(os, "%10.3f",
                 table.at(spec, Technique::Dvr, rptLabel(n)).ipc() /
                     base.ipc());
        outf(os, "\n");
    }
}

} // namespace

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> all = {
        {"table2_graph_inputs", "Table 2: graph inputs (scaled)",
         planTable2, renderTable2},
        {"fig2_rob_sweep_vr", "Figure 2: OoO and VR vs ROB size", planFig2,
         renderFig2},
        {"fig7_performance", "Figure 7: speedup over OoO baseline",
         planFig7, renderFig7},
        {"fig8_breakdown", "Figure 8: DVR factor breakdown", planFig8,
         renderFig8},
        {"fig9_mlp", "Figure 9: MSHRs used per cycle (MLP)", planOooVrDvr,
         renderFig9},
        {"fig10_accuracy_coverage",
         "Figure 10: DRAM accesses vs OoO (main + runahead)", planOooVrDvr,
         renderFig10},
        {"fig11_timeliness", "Figure 11: DVR prefetch timeliness",
         planFig11, renderFig11},
        {"fig12_rob_sweep_dvr", "Figure 12: DVR vs ROB size", planFig12,
         renderFig12},
        {"ablation_delayed_termination",
         "Ablation: VR delayed-termination commit stall",
         planDelayedTermination, renderDelayedTermination},
        {"ablation_vector_width", "Ablation: DVR vector width (lanes)",
         planVectorWidth, renderVectorWidth},
        {"ablation_mshrs", "Ablation: L1D MSHR count", planMshrs,
         renderMshrs},
        {"ablation_sw_prefetch", "Ablation: software prefetching vs runahead",
         planSwPrefetch, renderSwPrefetch},
        {"ablation_reconvergence",
         "Ablation: SIMT reconvergence vs lane invalidation",
         planReconvergence, renderReconvergence},
        {"ablation_stride_detector", "Ablation: stride detector entries",
         planStrideDetector, renderStrideDetector},
    };
    return all;
}

const Figure &
findFigure(const std::string &name)
{
    std::string valid;
    for (const Figure &f : figures()) {
        if (f.name == name)
            return f;
        valid += (valid.empty() ? "" : ", ") + f.name;
    }
    fatal("unknown figure '" + name + "' (valid: " + valid + ", all)");
}

void
printFigureHeader(std::ostream &os, const Figure &fig, const RunPlan &plan)
{
    os << "=== " << fig.title << " ===\n";
    os << "inputs: " << plan.graphScale().nodes << " nodes, degree "
       << plan.graphScale().avg_degree << "; hpc-db "
       << plan.hpcDbScale().elements << " elements; ROI " << plan.roi()
       << " insts after " << plan.warmup() << " warmup\n";
    printConfig(os, plan.config());
    os << "\n";
}

} // namespace vrsim
