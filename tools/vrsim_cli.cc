/**
 * @file
 * The vrsim command-line runner: simulate any workload under any
 * technique with configuration overrides, printing a full report, a
 * CSV row, or machine-readable JSON. Runs are described as a RunPlan
 * and executed by the SweepRunner, so --all-techniques sweeps share
 * one workload build and can run in parallel (--jobs / VRSIM_JOBS).
 * --figure runs one of the paper's tables, figures or ablations
 * (driver/figures.hh) on the plan the other flags describe.
 *
 * Usage:
 *   vrsim [options]
 *     --workload SPEC     bfs/KR, camel, hj8, ... (default camel)
 *     --technique NAME    ooo|pre|imp|vr|dvr-offload|dvr-discovery|
 *                         dvr|oracle in any case (default dvr)
 *     --all-techniques    run every technique, print a speedup table
 *     --figure NAME|all   print a paper table, figure or ablation
 *                         (fig7_performance, ...; all = every one in
 *                         order); takes the scale, config and sweep
 *                         flags, not --workload, --technique,
 *                         --all-techniques, --format or --replay
 *     --jobs N            worker threads for sweeps (default
 *                         VRSIM_JOBS or 1; 0 = hardware concurrency)
 *     --roi N             dynamic-instruction budget (default 150000)
 *     --warmup N          instructions excluded from statistics
 *     --ff-insts N        functionally fast-forward N instructions at
 *                         native-loop speed before the ROI (timing
 *                         state stays cold; docs/sampling.md)
 *     --sample N:M[:W]    SMARTS interval sampling over the ROI:
 *                         measure N detailed instructions per period
 *                         of M, after W detailed-warm instructions
 *                         (default min(N, M-N)); reports mean IPC
 *                         with a 95% confidence interval; mutually
 *                         exclusive with --warmup
 *     --rob N             ROB entries (default 350)
 *     --mshrs N           L1D MSHRs (default 24)
 *     --lanes N           DVR scalar-equivalent lanes (default 128)
 *     --nodes N           graph nodes (default 32768)
 *     --degree N          graph average degree (default 16)
 *     --elems N           hpc-db elements (default 131072)
 *     --watchdog-cycles N forward-progress watchdog bound (0 = off)
 *     --keep-going        record failed runs in a sweep and continue
 *     --inject-fail NAME[:KIND]
 *                         fault injection: fail the named technique's
 *                         run with KIND = fatal|panic|hang|diverge|
 *                         segv|oom|spin|exit:N|killself:SIG (default
 *                         panic); the process-grade kinds require
 *                         --isolation process; exercises the
 *                         robustness machinery end to end
 *     --isolation MODE    thread (default) | process: run each sweep
 *                         cell in its own forked child so a SIGSEGV/
 *                         OOM/wedge becomes a crashed/timedout row
 *                         instead of killing the sweep
 *     --cell-timeout S    per-cell wall-clock deadline in seconds
 *                         (SIGKILL on expiry; process isolation)
 *     --cell-mem-mb N     per-cell RLIMIT_AS cap in MiB, at most
 *                         16777216 (process isolation; do not
 *                         combine with ASan)
 *     --cell-cpu-s N      per-cell RLIMIT_CPU cap in seconds
 *     --retries N         re-run a cell after a process-grade death
 *                         up to N times, N <= 100 (exponential
 *                         backoff); in-taxonomy failures are never
 *                         retried
 *     --backoff-ms N      first retry delay, doubling per retry up to
 *                         one hour (default 100)
 *     --chaos SEED:RATE   chaos harness: randomly inject process-
 *                         grade faults into cells with probability
 *                         RATE per attempt (requires --isolation
 *                         process; see docs/robustness.md)
 *     --check-digests     differential oracle: hash every run's
 *                         committed stream and compare each technique
 *                         against the OoO baseline (added implicitly);
 *                         a mismatch is SimStatus::Diverged (exit 70)
 *     --digest-interval N retired instructions per digest sample
 *                         (default 8192)
 *     --digest-json FILE  collect every run's committed-state digest
 *                         and write them to FILE as JSON (one entry
 *                         per plan point) — lets the shell compare two
 *                         runs' committed streams byte for byte (the
 *                         ci.sh sampling stage)
 *     --repro-dir DIR     write a crash-repro bundle for every failed
 *                         run into DIR
 *     --trace EVENTS:FILE cycle-level NDJSON event trace; EVENTS is a
 *                         comma list of pipeline,mem,runahead,lanes or
 *                         all (a bare FILE traces everything); forces
 *                         --jobs 1; convert with tools/trace2chrome.py
 *     --stats-json FILE   dump the full stats registry per plan point
 *                         as a JSON array (docs/observability.md)
 *     --profile           add host.seconds / host.minsts_per_sec
 *                         columns to CSV/JSON output; host timing
 *                         is nondeterministic, hence opt-in
 *     --replay BUNDLE     re-run the exact point a repro bundle
 *                         describes and exit with its status's code
 *     --checkpoint FILE   journal completed sweep points to FILE
 *     --resume            restore completed points from --checkpoint
 *                         and run only the rest
 *     --paper-caches      full Table-1 L2/L3 instead of bench scaling
 *     --format FMT        table (default) | csv | json
 *     --csv               alias for --format csv
 *     --list              list available workload specs
 *     --help              print usage and exit 0
 *
 * Every run ends with a one-line self-profile on stderr (simulated
 * Minsts per host second, per-phase wall time; obs/self_profile.hh).
 *
 * Exit codes (see docs/robustness.md):
 *   0 success; 1 fatal (bad configuration / failed runs under
 *   --keep-going); 2 usage; 70 internal panic, watchdog hang, or
 *   digest divergence; 124 cell deadline expired; 128+signo cell
 *   killed by a signal (process isolation).
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "driver/figures.hh"
#include "driver/report.hh"
#include "driver/repro.hh"
#include "driver/sweep_runner.hh"
#include "rt/cell_supervisor.hh"
#include "obs/self_profile.hh"
#include "obs/trace.hh"
#include "sim/parse.hh"

using namespace vrsim;

namespace
{

constexpr int EXIT_FATAL = 1;
constexpr int EXIT_USAGE = 2;
constexpr int EXIT_PANIC_OR_HANG = 70;  //!< sysexits EX_SOFTWARE

enum class Format { Table, Csv, Json };

/**
 * --cell-timeout seconds as CellOptions::timeout_ms. The bound keeps
 * the child's deadline (now + timeout on the steady clock) far from
 * overflow; a positive timeout rounds up so it never reads as 0 (no
 * deadline).
 */
uint64_t
cellTimeoutMs(const std::string &flag, const char *s)
{
    constexpr double MAX_SECONDS = 1e6;
    double secs = parseF64(flag, s);
    if (!(secs >= 0.0 && secs <= MAX_SECONDS))  // NaN fails both
        fatal(flag + " must be a number of seconds in [0, 1000000] "
              "(0 = no deadline), got '" + s + "'");
    return uint64_t(std::ceil(secs * 1000.0));
}

/** An integer flag value in [0, @p max]; fatal() naming the flag and
 *  the bound otherwise, so a huge value cannot wrap into a small one. */
uint64_t
parseAtMost(const std::string &flag, const char *s, uint64_t max,
            const std::string &unit = "")
{
    uint64_t v = parseU64(flag, s);
    if (v > max)
        fatal(flag + " must be in [0, " + std::to_string(max) + "]" +
              unit + ", got '" + s + "'");
    return v;
}

Format
parseFormat(const std::string &s)
{
    if (s == "table") return Format::Table;
    if (s == "csv") return Format::Csv;
    if (s == "json") return Format::Json;
    fatal("unknown format: " + s + " (expected table, csv or json)");
}

/**
 * --replay: reconstruct the exact point a repro bundle describes,
 * re-run it (honoring any injected-failure kind), re-apply the
 * differential check against the bundled baseline digest, and report
 * whether the recorded failure reproduced.
 */
int
replayBundle(const std::string &path)
{
    ReproBundle b = readReproBundle(path);
    inform("replaying " + b.point.id() + " (recorded status: " +
           simStatusName(b.status) + ")");

    SimResult r;
    if (injectKindIsProcessGrade(b.point.inject_kind)) {
        // A process-grade fault must run in a supervised child (it
        // kills its process by design); the deadline makes a spin
        // fault reproduce as timedout instead of wedging the replay.
        CellOptions copts;
        copts.timeout_ms = 10'000;
        CellSupervisor sup(copts, WorkloadCache::process());
        r = sup.runCell(b.point).result;
    } else {
        r = simulate(b.point);
    }
    if (b.baseline_digest && r.ok()) {
        if (!r.digest)
            fatal("replayed run produced no digest but the bundle "
                  "carries a baseline digest");
        if (auto div = compareDigests(*b.baseline_digest, *r.digest)) {
            r.status = SimStatus::Diverged;
            r.status_message =
                "committed-state digest diverged from the OoO "
                "baseline at " + div->toString();
        }
    }

    if (r.ok())
        printReport(std::cout, r, b.point.cfg);
    else
        std::cerr << r.status_message << "\n";

    if (r.status == b.status)
        inform("replay reproduced the recorded status (" +
               std::string(simStatusName(r.status)) + ")");
    else
        warn("replay ended with status " +
             std::string(simStatusName(r.status)) +
             " but the bundle recorded " +
             std::string(simStatusName(b.status)));
    return exitCodeForStatus(r.status, r.term_signal);
}

void
printUsage(std::ostream &os)
{
    os <<
        "usage: vrsim [--workload SPEC] [--technique NAME]\n"
        "             [--all-techniques] [--figure NAME|all]\n"
        "             [--jobs N] [--roi N]\n"
        "             [--warmup N] [--ff-insts N] [--sample N:M[:W]]\n"
        "             [--rob N] [--mshrs N] [--lanes N]\n"
        "             [--nodes N] [--degree N] [--elems N]\n"
        "             [--watchdog-cycles N] [--keep-going]\n"
        "             [--inject-fail NAME[:KIND]] [--check-digests]\n"
        "             [--isolation thread|process] [--cell-timeout S]\n"
        "             [--cell-mem-mb N] [--cell-cpu-s N] [--retries N]\n"
        "             [--backoff-ms N] [--chaos SEED:RATE]\n"
        "             [--digest-interval N] [--digest-json FILE]\n"
        "             [--repro-dir DIR]\n"
        "             [--trace EVENTS:FILE] [--stats-json FILE]\n"
        "             [--profile] [--replay BUNDLE]\n"
        "             [--checkpoint FILE] [--resume] [--paper-caches]\n"
        "             [--format table|csv|json] [--csv] [--list]\n"
        "             [--help]\n"
        "\n"
        "exit codes (docs/robustness.md):\n"
        "  0      success\n"
        "  1      fatal error, or failed run(s) under --keep-going\n"
        "  2      usage: unknown flag or missing value\n"
        "  70     internal panic, watchdog hang, or digest divergence\n"
        "  124    cell exceeded its --cell-timeout deadline "
        "(--isolation process)\n"
        "  128+N  cell child died by signal N "
        "(--isolation process)\n";
}

[[noreturn]] void
usage()
{
    printUsage(std::cerr);
    std::exit(EXIT_USAGE);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec = "camel";
    std::string tech = "dvr";
    std::string inject_fail;
    std::string replay_path;
    std::string trace_spec;
    std::string stats_json_path;
    std::string digest_json_path;
    std::string sample_spec;
    std::string figure;
    std::string run_flag;  // last flag that picks what a plain run does
    uint64_t ff_insts = 0;
    bool all_techniques = false;
    bool keep_going = false;
    bool paper_caches = false;
    bool check_digests = false;
    Format format = Format::Table;
    uint64_t jobs = 0;  // 0 = VRSIM_JOBS / default 1
    uint64_t roi = 150'000;
    uint64_t warmup = 0;
    GraphScale gscale;
    HpcDbScale hscale;
    SystemConfig cfg = SystemConfig::benchScale();
    SweepOptions opts;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };

    try {
        for (int i = 1; i < argc; i++) {
            std::string a = argv[i];
            if (a == "--workload" || a == "--technique" ||
                a == "--all-techniques" || a == "--format" ||
                a == "--csv" || a == "--replay")
                run_flag = a;
            if (a == "--workload") spec = need(i);
            else if (a == "--technique") tech = need(i);
            else if (a == "--all-techniques") all_techniques = true;
            else if (a == "--figure") figure = need(i);
            else if (a == "--keep-going") keep_going = true;
            else if (a == "--inject-fail") inject_fail = need(i);
            else if (a == "--check-digests") check_digests = true;
            else if (a == "--digest-interval")
                cfg.digest_interval = parseU64(a, need(i));
            else if (a == "--digest-json") digest_json_path = need(i);
            else if (a == "--ff-insts")
                ff_insts = parseU64(a, need(i));
            else if (a == "--sample") sample_spec = need(i);
            else if (a == "--repro-dir") opts.repro_dir = need(i);
            else if (a == "--isolation")
                opts.isolation = isolationFromName(need(i));
            else if (a == "--cell-timeout")
                opts.cell.timeout_ms = cellTimeoutMs(a, need(i));
            else if (a == "--cell-mem-mb")
                opts.cell.mem_mb = parseAtMost(a, need(i),
                                               CellOptions::MAX_MEM_MB,
                                               " MiB");
            else if (a == "--cell-cpu-s")
                opts.cell.cpu_s = parseU64(a, need(i));
            else if (a == "--retries")
                opts.cell.retries = unsigned(parseAtMost(
                    a, need(i), CellOptions::MAX_RETRIES));
            else if (a == "--backoff-ms")
                opts.cell.backoff_ms = parseU64(a, need(i));
            else if (a == "--chaos")
                opts.cell.chaos = ChaosPolicy::parse(need(i));
            else if (a == "--trace") trace_spec = need(i);
            else if (a == "--stats-json") stats_json_path = need(i);
            else if (a == "--profile") setProfileColumns(true);
            else if (a == "--replay") replay_path = need(i);
            else if (a == "--checkpoint") opts.checkpoint = need(i);
            else if (a == "--resume") opts.resume = true;
            else if (a == "--jobs") jobs = parseU64(a, need(i));
            else if (a == "--roi") roi = parseU64(a, need(i));
            else if (a == "--warmup") warmup = parseU64(a, need(i));
            else if (a == "--rob")
                cfg.core.rob_size = parseU32(a, need(i));
            else if (a == "--mshrs")
                cfg.l1d.mshrs = parseU32(a, need(i));
            else if (a == "--lanes")
                cfg.runahead.vector_regs =
                    parseU32(a, need(i)) /
                    cfg.runahead.lanes_per_vector;
            else if (a == "--nodes")
                gscale.nodes = parseU64(a, need(i));
            else if (a == "--degree")
                gscale.avg_degree = parseU64(a, need(i));
            else if (a == "--elems")
                hscale.elements = parseU64(a, need(i));
            else if (a == "--watchdog-cycles")
                cfg.watchdog_cycles = parseU64(a, need(i));
            else if (a == "--paper-caches") paper_caches = true;
            else if (a == "--format")
                format = parseFormat(need(i));
            else if (a == "--csv") format = Format::Csv;
            else if (a == "--list") {
                for (const auto &s : allBenchmarkSpecs())
                    std::cout << s << "\n";
                std::cout << "camel-swpf\n";
                return 0;
            } else if (a == "--help") {
                printUsage(std::cout);
                return 0;
            } else {
                usage();
            }
        }

        // A figure picks its own specs, columns and output, and runs
        // one plan per figure.
        std::vector<const Figure *> figs;
        if (!figure.empty()) {
            if (!run_flag.empty())
                fatal("--figure cannot be combined with " + run_flag);
            if (figure == "all") {
                if (!opts.checkpoint.empty() || opts.resume)
                    fatal("--figure all runs one plan per figure, but a "
                          "--checkpoint journal holds one plan; "
                          "checkpoint one figure at a time");
                if (!stats_json_path.empty() || !digest_json_path.empty())
                    fatal("--figure all runs one plan per figure, but "
                          "--stats-json and --digest-json files hold "
                          "one plan; write them one figure at a time");
                for (const Figure &f : figures())
                    figs.push_back(&f);
            } else {
                figs.push_back(&findFigure(figure));
            }
        }

        if (!replay_path.empty())
            return replayBundle(replay_path);

        if (paper_caches) {
            SystemConfig p = SystemConfig::paper();
            cfg.l2 = p.l2;
            cfg.l3 = p.l3;
        }

        if (!digest_json_path.empty())
            cfg.collect_digest = true;

        RunPlan plan(cfg);
        plan.scale(gscale, hscale).roi(roi).warmup(warmup);
        {
            SamplingPlan splan;
            if (!sample_spec.empty())
                splan = SamplingPlan::parse(sample_spec);
            splan.ff_insts = ff_insts;
            plan.sample(splan);
        }
        if (!inject_fail.empty()) {
            // NAME[:KIND], e.g. "vr:diverge" or "dvr:exit:3"; the
            // split is at the FIRST colon only — the kind spec may
            // carry its own ":arg". KIND defaults to panic.
            InjectKind kind = InjectKind::Panic;
            uint32_t arg = 0;
            std::string name = inject_fail;
            if (size_t colon = inject_fail.find(':');
                colon != std::string::npos) {
                name = inject_fail.substr(0, colon);
                kind = injectKindParse(inject_fail.substr(colon + 1),
                                       arg);
            }
            plan.injectFail(techniqueFromName(name), kind, arg);
        }

        // Each figure adds its grids to its own copy of the base plan.
        std::vector<RunPlan> plans;
        for (const Figure *f : figs) {
            plans.push_back(plan);
            f->plan(plans.back());
        }
        if (figs.empty()) {
            if (all_techniques) {
                plan.add({spec},
                         {Technique::OoO, Technique::Pre, Technique::Imp,
                          Technique::Vr, Technique::DvrOffload,
                          Technique::DvrDiscovery, Technique::Dvr,
                          Technique::Oracle});
            } else {
                Technique t = techniqueFromName(tech);
                std::vector<TechColumn> columns;
                // Differential checking needs the OoO baseline column;
                // add it implicitly for single-technique runs.
                if (check_digests && t != Technique::OoO)
                    columns.push_back(Technique::OoO);
                columns.push_back(t);
                plan.add({spec}, std::move(columns));
            }
            plans.push_back(plan);
        }

        // The trace stream and sink outlive the sweep; the sink only
        // borrows the stream (obs/trace.hh).
        std::ofstream trace_os;
        std::optional<TraceSink> trace_sink;
        if (!trace_spec.empty()) {
            uint32_t mask = TRACE_ALL;
            std::string path;
            TraceSink::parseSpec(trace_spec, mask, path);
            trace_os.open(path, std::ios::trunc);
            if (!trace_os)
                fatal("cannot write trace file '" + path + "'");
            trace_sink.emplace(trace_os, mask);
            opts.trace = &*trace_sink;
        }

        opts.jobs = unsigned(jobs);
        opts.progress = all_techniques && format == Format::Table;
        opts.check_digests = check_digests;
        SweepRunner runner(opts);
        std::vector<ResultTable> tables;
        for (const RunPlan &p : plans)
            tables.push_back(runner.run(p));
        const ResultTable &table = tables.front();

        if (trace_sink) {
            trace_os.flush();
            inform("trace: " +
                   std::to_string(trace_sink->eventsEmitted()) +
                   " events written (convert with "
                   "tools/trace2chrome.py)");
        }

        if (!stats_json_path.empty()) {
            std::ofstream sj(stats_json_path, std::ios::trunc);
            if (!sj)
                fatal("cannot write stats-json file '" +
                      stats_json_path + "'");
            writeStatsJson(sj, table, &runner.stats());
        }

        if (!digest_json_path.empty()) {
            std::ofstream dj(digest_json_path, std::ios::trunc);
            if (!dj)
                fatal("cannot write digest-json file '" +
                      digest_json_path + "'");
            dj << "[\n";
            bool first = true;
            for (size_t i = 0; i < table.size(); i++) {
                const SimResult &r = table.results()[i];
                if (!r.ok())
                    continue;
                if (!r.digest)
                    fatal("--digest-json: run " +
                          table.points()[i].id() +
                          " produced no digest");
                dj << (first ? "" : ",\n")
                   << "{\"id\":\""
                   << jsonEscape(table.points()[i].id())
                   << "\",\"digest\":"
                   << digestRecordToJson(*r.digest) << "}";
                first = false;
            }
            dj << "\n]\n";
        }

        // Time the rendering below as the "report" phase; reset()
        // before the summary so its seconds are included.
        std::optional<SelfProfiler::PhaseTimer> report_timer(
            SelfProfiler::process().phase("report"));

        // Without --keep-going, the first failure ends the program
        // with the same exit codes an unguarded run would have had.
        size_t failures = 0, runs = 0;
        for (const ResultTable &t : tables) {
            for (const SimResult &r : t.results()) {
                if (!r.ok() && !keep_going) {
                    std::cerr << r.status_message << "\n";
                    return exitCodeForStatus(r.status, r.term_signal);
                }
            }
            failures += t.failures();
            runs += t.size();
        }

        if (!figs.empty()) {
            for (size_t i = 0; i < figs.size(); i++) {
                // A fresh stream per figure: renderers leave stream
                // flags (fixed, precision, alignment) set.
                std::ostringstream os;
                if (i > 0)
                    os << "\n";
                printFigureHeader(os, *figs[i], plans[i]);
                figs[i]->render(os, plans[i], tables[i]);
                std::cout << os.str();
            }
        } else if (format == Format::Csv) {
            if (table.size() > 1)
                table.writeCsv(std::cout);
            else
                CsvWriter(std::cout).row(table.results().front());
        } else if (format == Format::Json) {
            if (table.size() > 1)
                printJson(std::cout, table.results());
            else
                printJson(std::cout, table.results().front());
        } else if (all_techniques) {
            double base = 0;
            const SimResult *ooo =
                table.find(spec, techniqueName(Technique::OoO));
            if (ooo && ooo->ok())
                base = ooo->ipc();
            for (const SimResult &r : table.results()) {
                if (r.ok()) {
                    std::printf("%-14s IPC %-8.3f speedup %-7.2f "
                                "MLP %-6.1f DRAM %llu\n",
                                techniqueName(r.technique).c_str(),
                                r.ipc(),
                                base > 0 ? r.ipc() / base : 0.0,
                                r.mlp,
                                (unsigned long long)r.mem.dramTotal());
                } else {
                    std::printf("%-14s %-6s %s\n",
                                techniqueName(r.technique).c_str(),
                                simStatusName(r.status),
                                r.status_message.c_str());
                }
            }
        } else {
            printReport(std::cout, table.results().back(), cfg);
        }

        report_timer.reset();
        inform(SelfProfiler::process().summary());

        if (failures) {
            std::cerr << "warn: " << failures << " of " << runs
                      << " technique runs failed (partial results "
                         "above)\n";
            return EXIT_FATAL;
        }
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return EXIT_FATAL;
    } catch (const HangError &e) {
        std::cerr << e.what() << "\n";
        return EXIT_PANIC_OR_HANG;
    } catch (const PanicError &e) {
        std::cerr << e.what() << "\n";
        return EXIT_PANIC_OR_HANG;
    }
    return 0;
}
