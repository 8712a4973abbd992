#include "driver/report.hh"

#include <iomanip>

#include "obs/self_profile.hh"
#include "sim/parse.hh"

namespace vrsim
{

StatsRegistry
buildRegistry(const SimResult &r)
{
    StatsRegistry reg;
    reg.addGauge("run.ok", "1 when the run completed") =
        r.ok() ? 1.0 : 0.0;
    r.core.registerIn(reg);
    r.mem.registerIn(reg, r.mlp);
    if (r.pre)
        r.pre->registerIn(reg);
    if (r.vr)
        r.vr->registerIn(reg);
    if (r.dvr)
        r.dvr->registerIn(reg);
    if (r.sample)
        r.sample->registerIn(reg);
    // Host-side timing is wall-clock and therefore nondeterministic;
    // it only enters reports when profiling columns are opted into
    // (--profile / VRSIM_PROFILE), keeping default output
    // byte-identical across runs and job counts.
    if (profileColumnsEnabled()) {
        reg.addGauge("host.seconds",
                     "host wall time of the core run") =
            r.host_seconds;
        reg.addGauge("host.minsts_per_sec",
                     "simulated Minsts per host second") =
            r.host_seconds > 0.0
                ? double(r.core.instructions) / r.host_seconds / 1e6
                : 0.0;
        reg.addGauge("host.ff_seconds",
                     "host wall time in functional fast-forward "
                     "segments") = r.host_ff_seconds;
        reg.addGauge("host.detailed_seconds",
                     "host wall time in detailed (warm + measure) "
                     "windows") = r.host_detailed_seconds;
        reg.addGauge("host.ff_minsts_per_sec",
                     "functionally fast-forwarded Minsts per host "
                     "second") =
            r.host_ff_seconds > 0.0 && r.sample
                ? double(r.sample->ff_insts) / r.host_ff_seconds / 1e6
                : 0.0;
    }
    return reg;
}

void
printReport(std::ostream &os, const SimResult &r,
            const SystemConfig &cfg)
{
    os << "=== " << r.workload << " under "
       << techniqueName(r.technique) << " ===\n";
    SystemConfig shown = cfg;
    shown.technique = r.technique;
    printConfig(os, shown);

    if (!r.ok()) {
        // A failed run has no meaningful statistics: report what
        // happened and stop.
        os << "\n-- status --\n";
        os << "status          " << simStatusName(r.status) << "\n";
        os << "message         " << r.status_message << "\n";
        return;
    }

    os << "\n-- performance --\n";
    os << std::fixed << std::setprecision(3);
    os << "instructions    " << r.core.instructions << "\n";
    os << "cycles          " << r.core.cycles << "\n";
    os << "IPC             " << r.ipc() << "\n";

    if (r.sample && (r.sample->intervals || r.sample->ff_insts)) {
        os << "\n-- sampling --\n";
        os << "ff insts        " << r.sample->ff_insts << "\n";
        if (r.sample->intervals) {
            os << "warm insts      " << r.sample->warm_insts << "\n";
            os << "intervals       " << r.sample->intervals << "\n";
            os << "sampled CPI     " << r.sample->cpiMean() << " +- "
               << r.sample->cpiCi95() << " (95% CI, stddev "
               << r.sample->cpiStddev() << ")\n";
            os << "sampled IPC     " << r.sample->ipcMean() << " +- "
               << r.sample->ipcCi95() << " (95% CI, delta method)\n";
        }
    }

    auto pct = [&r](uint64_t v) {
        return r.core.cycles ? 100.0 * double(v) / double(r.core.cycles)
                             : 0.0;
    };
    CoreStats::CpiStack cs = r.core.cpiStack();
    os << "\n-- CPI stack --\n" << std::setprecision(3);
    os << "base            " << cs.base << "\n";
    os << "front-end       " << cs.frontend << "\n";
    os << "issue queue     " << cs.issue_queue << "\n";
    os << "load queue      " << cs.load_queue << "\n";
    os << "store queue     " << cs.store_queue << "\n";
    os << "ROB             " << cs.rob << "\n";
    os << "runahead        " << cs.runahead << "\n";
    os << "total CPI       " << cs.total() << "\n";

    os << "\n-- dispatch stalls (% of cycles) --\n"
       << std::setprecision(1);
    os << "fetch redirect  " << pct(r.core.stall_fetch) << "%\n";
    os << "issue queue     " << pct(r.core.stall_iq) << "%\n";
    os << "load queue      " << pct(r.core.stall_lq) << "%\n";
    os << "store queue     " << pct(r.core.stall_sq) << "%\n";
    os << "ROB             " << pct(r.core.rob_stall_cycles) << "%\n";

    os << "\n-- memory --\n";
    double acc = double(std::max<uint64_t>(1, r.mem.demand_accesses));
    os << "demand accesses " << r.mem.demand_accesses << "\n";
    os << "L1/L2/L3/mem    " << 100.0 * r.mem.demand_l1_hits / acc
       << "% / " << 100.0 * r.mem.demand_l2_hits / acc << "% / "
       << 100.0 * r.mem.demand_l3_hits / acc << "% / "
       << 100.0 * r.mem.demand_mem / acc << "%\n";
    os << "mean latency    "
       << double(r.mem.demand_latency_sum) / acc << " cycles\n";
    os << "MLP (MSHRs/cyc) " << r.mlp << "\n";
    os << "DRAM fills      " << r.mem.dramTotal() << " (main "
       << r.dramMain() << ", runahead " << r.dramRunahead() << ")\n";

    if (r.core.branches) {
        os << "\n-- branches --\n";
        os << "mispredict rate "
           << 100.0 * double(r.core.mispredicts) /
                  double(r.core.branches)
           << "% (" << r.core.mispredicts << " / " << r.core.branches
           << ")\n";
    }

    if (r.pre) {
        os << "\n-- PRE --\n";
        os << "intervals       " << r.pre->intervals << "\n";
        os << "prefetches      " << r.pre->prefetches << "\n";
        os << "skipped (dep.)  " << r.pre->skipped_dependent << "\n";
    }
    if (r.vr) {
        os << "\n-- Vector Runahead --\n";
        os << "triggers        " << r.vr->triggers << "\n";
        os << "vectorizations  " << r.vr->vectorizations << "\n";
        os << "lanes           " << r.vr->lanes_spawned << "\n";
        os << "prefetches      " << r.vr->prefetches << "\n";
        os << "invalidated     " << r.vr->lanes_invalidated << "\n";
        os << "commit stall    " << r.core.runahead_commit_stall
           << " cycles\n";
    }
    if (r.dvr) {
        os << "\n-- Decoupled Vector Runahead --\n";
        os << "discoveries     " << r.dvr->discoveries << " ("
           << r.dvr->discovery_aborts << " aborted, "
           << r.dvr->innermost_switches << " innermost switches)\n";
        os << "spawns          " << r.dvr->spawns << " ("
           << r.dvr->nested_spawns << " nested)\n";
        os << "lanes           " << r.dvr->lanes_spawned << " (mean "
           << r.dvr->meanLanes() << ")\n";
        os << "prefetches      " << r.dvr->prefetches << "\n";
        os << "divergences     " << r.dvr->divergences << "\n";
        os << "bound-limited   " << r.dvr->bound_limited << "\n";
    }
}

void
CsvWriter::row(const SimResult &r)
{
    emit(r, nullptr);
}

void
CsvWriter::row(const SimResult &r, const std::string &point_id)
{
    emit(r, &point_id);
}

void
CsvWriter::emit(const SimResult &r, const std::string *point_id)
{
    StatsRegistry reg = buildRegistry(r);
    if (!wrote_header_) {
        wrote_header_ = true;
        with_point_ = point_id != nullptr;
        if (with_point_)
            os_ << "point,";
        os_ << "workload,technique,status,message";
        for (const auto &path : reg.paths()) {
            columns_.push_back(path);
            os_ << "," << path;
        }
        os_ << "\n";
    }
    panicIfNot(with_point_ == (point_id != nullptr),
               "CsvWriter: mixing point-labelled and plain rows");
    // The diagnostic message may contain the CSV separator; keep the
    // row machine-parsable.
    std::string msg = r.status_message;
    for (char &c : msg)
        if (c == ',' || c == '\n')
            c = ';';
    if (with_point_)
        os_ << *point_id << ",";
    os_ << r.workload << "," << techniqueName(r.technique) << ","
        << simStatusName(r.status) << "," << msg;
    for (const auto &col : columns_)
        os_ << "," << (reg.has(col) ? reg.value(col) : 0.0);
    os_ << "\n";
}

namespace
{

void
jsonObject(std::ostream &os, const SimResult &r, const char *indent)
{
    os << indent << "{\n";
    os << indent << "  \"workload\": \"" << jsonEscape(r.workload)
       << "\",\n";
    os << indent << "  \"technique\": \""
       << jsonEscape(techniqueName(r.technique)) << "\",\n";
    os << indent << "  \"status\": \"" << simStatusName(r.status)
       << "\",\n";
    os << indent << "  \"message\": \"" << jsonEscape(r.status_message)
       << "\",\n";
    os << indent << "  \"stats\": {";
    StatsRegistry reg = buildRegistry(r);
    bool first = true;
    reg.visit([&](const StatNode &n) {
        os << (first ? "\n" : ",\n") << indent << "    \"" << n.path()
           << "\": " << n.value(reg);
        first = false;
    });
    os << "\n" << indent << "  }\n";
    os << indent << "}";
}

} // namespace

void
printJson(std::ostream &os, const SimResult &r)
{
    // Full double precision so downstream tooling round-trips values.
    auto prec = os.precision(15);
    jsonObject(os, r, "");
    os << "\n";
    os.precision(prec);
}

void
printJson(std::ostream &os, const std::vector<SimResult> &results)
{
    auto prec = os.precision(15);
    os << "[\n";
    for (size_t i = 0; i < results.size(); i++) {
        jsonObject(os, results[i], "  ");
        os << (i + 1 < results.size() ? ",\n" : "\n");
    }
    os << "]\n";
    os.precision(prec);
}

void
writeStatsJson(std::ostream &os, const ResultTable &table,
               const StatsRegistry *sweep)
{
    // An empty sweep registry (thread-mode sweeps) is treated as
    // absent so existing output stays byte-identical.
    const bool with_sweep = sweep && sweep->size() > 0;
    auto prec = os.precision(15);
    os << "[\n";
    for (size_t i = 0; i < table.size(); i++) {
        const RunPoint &p = table.points()[i];
        const SimResult &r = table.results()[i];
        os << "  {\n";
        os << "    \"point\": \"" << jsonEscape(p.id()) << "\",\n";
        os << "    \"workload\": \"" << jsonEscape(r.workload)
           << "\",\n";
        os << "    \"technique\": \""
           << jsonEscape(techniqueName(r.technique)) << "\",\n";
        os << "    \"status\": \"" << simStatusName(r.status)
           << "\",\n";
        os << "    \"stats\": ";
        buildRegistry(r).dumpJson(os);
        os << "\n  }"
           << (i + 1 < table.size() || with_sweep ? "," : "") << "\n";
    }
    if (with_sweep) {
        // Trailing element: sweep-level execution telemetry
        // (sweep.cells.*, sweep.backoff_ms) from process isolation.
        os << "  {\n";
        os << "    \"point\": \"<sweep>\",\n";
        os << "    \"stats\": ";
        sweep->dumpJson(os);
        os << "\n  }\n";
    }
    os << "]\n";
    os.precision(prec);
}

} // namespace vrsim
