/**
 * @file
 * vrbench: the repository benchmark (README.md in this directory).
 *
 *   vrbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *           [--reference-dir DIR] [--record FILE]
 *       One workload, one process, one simulation thread. Sets up
 *       (builds the inputs) several times, then runs the sweep in a
 *       closed loop until about S seconds (default 25) have passed
 *       since the run began, set-up included, and reports
 *       medians over the set-ups, cells and sweeps. --trace 1
 *       reports the per-layer metrics instead of the end-to-end ones.
 *       The last stdout line is the JSON result; --record appends a
 *       fuller record (per-sweep samples, fingerprint) to FILE.
 *   vrbench --write-reference --workload NAME --seed N
 *           --reference-dir DIR
 *       Record the per-cell statistics (and, for the sampled workload,
 *       the full-detail CPI) that later runs are checked against.
 *   vrbench --aggregate RECORDS --out FILE [--commit C]
 *       Medians and quartiles over the rounds in RECORDS.
 *   vrbench --self-test BENCHMARK_JSON
 *       Every workload at a tiny scale, checked against the metric
 *       list in BENCHMARK_JSON.
 *
 * Exit codes: 0 ok, 1 correctness failure, 2 usage.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>
#include <thread>

#include "driver/sweep_runner.hh"
#include "layers.hh"
#include "obs/self_profile.hh"
#include "sim/parse.hh"

using namespace vrbench;
using namespace vrsim;

namespace
{

constexpr int EXIT_INCORRECT = 1;
constexpr int EXIT_USAGE = 2;

/**
 * Set-ups per run: at least SETUP_MIN_REPS, then more until
 * SETUP_MIN_S have passed, so that a build of a few milliseconds is
 * still timed over a second. setup_s is their median.
 */
constexpr int SETUP_MIN_REPS = 5;
constexpr int SETUP_MAX_REPS = 200;
constexpr double SETUP_MIN_S = 1.0;

/** Instructions of each spec's stream the traced run replays. */
constexpr uint64_t REPLAY_INSTS = 1u << 19;

/** Sampled CPI further than this from full detail is a failure. */
constexpr double CPI_ERR_LIMIT_PCT = 10.0;

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "vrbench: " << msg << "\n"
              << "usage: vrbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "               [--reference-dir DIR] [--record FILE]\n"
                 "       vrbench --write-reference --workload NAME "
                 "--seed N --reference-dir DIR\n"
                 "       vrbench --aggregate RECORDS --out FILE "
                 "[--commit C]\n"
                 "       vrbench --self-test BENCHMARK_JSON\n";
    std::exit(EXIT_USAGE);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/** What one run measured and checked. */
struct Outcome
{
    std::string workload;
    uint64_t seed = 0;
    bool trace = false;
    Metrics metrics;   //!< what the run reports
    std::map<std::string, std::vector<double>> samples;  //!< per sweep
    uint64_t attempted = 0;   //!< cells run
    uint64_t cells_failed = 0;
    std::optional<uint64_t> stats_mismatch_cells;  //!< absent: no ref
    std::optional<double> cpi_err_pct;             //!< absent: no ref
    uint64_t fingerprint = 0;
    std::vector<std::string> errors;

    uint64_t
    failed() const
    {
        return cells_failed + stats_mismatch_cells.value_or(0);
    }

    bool correct() const { return errors.empty() && failed() == 0; }

    void
    sample(const std::string &name, double v, const std::string &unit)
    {
        samples[name].push_back(v);
        metrics[name] = {median(samples[name]), unit};
    }
};

/** The inputs built several times over; the last cache is kept. */
struct Setup
{
    std::unique_ptr<WorkloadCache> cache;
    std::vector<double> build_s;
    std::vector<double> instantiate_ms;
};

Setup
setUp(const BenchWorkload &w, int min_reps, double min_s)
{
    Setup s;
    const auto start = Clock::now();
    for (int k = 0; k < SETUP_MAX_REPS &&
                    (k < min_reps || secondsSince(start) < min_s); k++) {
        s.cache.reset();
        auto cache = std::make_unique<WorkloadCache>();
        auto t0 = Clock::now();
        for (const auto &spec : w.specs)
            cache->artifact(spec, w.gscale, w.hscale);
        s.build_s.push_back(secondsSince(t0));
        s.cache = std::move(cache);
    }
    for (int k = 0; k < min_reps; k++) {
        for (const auto &spec : w.specs) {
            auto t0 = Clock::now();
            Workload copy = s.cache->instantiate(spec, w.gscale, w.hscale);
            s.instantiate_ms.push_back(1e3 * secondsSince(t0));
        }
    }
    return s;
}

/**
 * Check one sweep: failed cells, stats that moved since the run's
 * first sweep, and (first sweep only) the recorded reference.
 */
void
checkSweep(const ResultTable &table, const std::optional<Reference> &ref,
           std::optional<CellStats> &first, Outcome &o)
{
    o.attempted += table.size();
    o.cells_failed += table.failures();
    for (size_t i = 0; i < table.size(); i++)
        if (!table.results()[i].ok())
            o.errors.push_back(table.points()[i].id() + " " +
                               simStatusName(table.results()[i].status) +
                               ": " + table.results()[i].status_message);
    CellStats stats = cellStats(table);
    if (first) {
        for (const auto &id : mismatchedCells(stats, *first))
            o.errors.push_back(id + ": stats changed between sweeps");
        return;
    }
    first = stats;
    if (!ref)
        return;
    std::vector<std::string> bad = mismatchedCells(stats, ref->cells);
    o.stats_mismatch_cells = bad.size();
    for (const auto &id : bad)
        o.errors.push_back(id + ": stats differ from the reference");
    o.cpi_err_pct = cpiErrorPct(table, *ref);
    if (o.cpi_err_pct && *o.cpi_err_pct > CPI_ERR_LIMIT_PCT)
        o.errors.push_back("sampled CPI is " + num(*o.cpi_err_pct) +
                           "% off full detail (limit " +
                           num(CPI_ERR_LIMIT_PCT) + "%)");
}

Outcome
runBenchmark(const std::string &name, uint64_t seed, double seconds,
             bool trace, bool smoke, const std::string &reference_dir)
{
    Outcome o;
    o.workload = name;
    o.seed = seed;
    o.trace = trace;
    const BenchWorkload w = makeBenchWorkload(name, seed, smoke);
    const RunPlan plan = makePlan(w);
    std::optional<Reference> ref;
    if (!smoke && !reference_dir.empty())
        ref = loadReference(referencePath(reference_dir, name, seed));

    // --seconds caps the whole run, set-up included.
    const auto start = Clock::now();
    Setup setup = smoke ? setUp(w, 2, 0.0)
                        : setUp(w, SETUP_MIN_REPS, SETUP_MIN_S);
    o.fingerprint = inputFingerprint(w, *setup.cache);
    std::vector<Stream> streams;
    if (trace)
        streams = captureStreams(w, *setup.cache,
                                 smoke ? 20'000 : REPLAY_INSTS);

    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.cache = setup.cache.get();
    opts.check_digests = w.check_digests;
    SweepRunner runner(opts);
    std::optional<CellStats> first;

    // The first sweep is checked against the reference but not timed:
    // it pays for page faults and allocator growth that later sweeps
    // do not.
    checkSweep(runner.run(plan), ref, first, o);

    // Closed loop: one sweep at a time while the next one still fits in
    // the time left (at least one).
    std::map<std::string, std::vector<double>> cell_rates;
    std::vector<double> sweeps_s;
    double iteration_s = 0;
    do {
        auto t0 = Clock::now();
        ResultTable table = runner.run(plan);
        const double sweep_s = secondsSince(t0);
        checkSweep(table, ref, first, o);
        if (trace) {
            Metrics layers = traceRound(w, *setup.cache, table, sweep_s,
                                        streams, o.errors);
            for (const auto &[k, m] : layers)
                o.sample(k, m.value, m.unit);
        } else {
            double insts = 0;
            for (size_t i = 0; i < table.size(); i++) {
                const RunPoint &p = table.points()[i];
                const SimResult &r = table.results()[i];
                const double n = double(ffInsts(r) + detailedInsts(p, r));
                insts += n;
                cell_rates[p.id()].push_back(n / r.host_seconds / 1e6);
            }
            sweeps_s.push_back(sweep_s);
            o.sample("minsts_per_s", insts / sweep_s / 1e6, "Minsts/s");
        }
        iteration_s = secondsSince(t0);
    } while (secondsSince(start) + iteration_s <= seconds);

    if (trace) {
        o.samples["workloads.build_s"] = setup.build_s;
        o.metrics["workloads.build_s"] = {median(setup.build_s), "s"};
        o.samples["workloads.instantiate_ms"] = setup.instantiate_ms;
        o.metrics["workloads.instantiate_ms"] = {
            median(setup.instantiate_ms), "ms"};
        return o;
    }
    const double setup_s = median(setup.build_s);
    o.samples["setup_s"] = setup.build_s;
    o.metrics["setup_s"] = {setup_s, "s"};
    for (double s : sweeps_s)
        o.sample("wall_s", setup_s + s, "s");
    // The slowest cell by its median over the sweeps: the slowest of
    // one sweep's cells is mostly the one a host hiccup hit.
    const std::vector<double> *slowest = nullptr;
    for (const auto &[id, rates] : cell_rates)
        if (!slowest || median(rates) < median(*slowest))
            slowest = &rates;
    if (slowest) {
        o.samples["slowest_cell_minsts_per_s"] = *slowest;
        o.metrics["slowest_cell_minsts_per_s"] = {median(*slowest),
                                                  "Minsts/s"};
    }
    o.metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    return o;
}

/** `workload metric value unit` lines, then the JSON result line. */
void
printOutcome(const Outcome &o)
{
    for (const auto &[k, m] : o.metrics)
        std::cout << o.workload << " " << k << " " << num(m.value) << " "
                  << m.unit << "\n";
    std::cout << o.workload << " cells " << o.attempted << " count\n"
              << o.workload << " cells_failed " << o.cells_failed
              << " count\n"
              << o.workload << " stats_mismatch_cells "
              << (o.stats_mismatch_cells
                      ? std::to_string(*o.stats_mismatch_cells)
                      : "absent")
              << " count\n"
              << o.workload << " cpi_err_pct "
              << (o.cpi_err_pct ? num(*o.cpi_err_pct) : "absent")
              << " %\n";
    for (const auto &e : o.errors)
        std::cerr << "vrbench: " << o.workload << ": " << e << "\n";
    std::cout << "{\"correct\": " << (o.correct() ? "true" : "false")
              << ", \"attempted\": " << o.attempted
              << ", \"failed\": " << o.failed() << ", \"metrics\": {";
    bool first = true;
    for (const auto &[k, m] : o.metrics) {
        std::cout << (first ? "" : ", ") << "\"" << k
                  << "\": {\"value\": " << num(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

/** One JSON line per run, for --aggregate. */
void
appendRecord(const std::string &path, const Outcome &o)
{
    std::ofstream os(path, std::ios::app);
    if (!os)
        fatal("cannot append to record file '" + path + "'");
    char fp[20];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  (unsigned long long)o.fingerprint);
    os << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
       << ", \"trace\": " << (o.trace ? 1 : 0)
       << ", \"correct\": " << (o.correct() ? "true" : "false")
       << ", \"fingerprint\": \"" << fp << "\", \"cells\": "
       << o.attempted << ", \"cells_failed\": " << o.cells_failed
       << ", \"stats_mismatch_cells\": "
       << (o.stats_mismatch_cells
               ? std::to_string(*o.stats_mismatch_cells) : "null")
       << ", \"cpi_err_pct\": "
       << (o.cpi_err_pct ? num(*o.cpi_err_pct) : "null")
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[k, m] : o.metrics) {
        os << (first ? "" : ", ") << "\"" << k << "\": {\"value\": "
           << num(m.value) << ", \"unit\": \"" << m.unit
           << "\", \"samples\": [";
        const auto it = o.samples.find(k);
        if (it != o.samples.end())
            for (size_t i = 0; i < it->second.size(); i++)
                os << (i ? ", " : "") << num(it->second[i]);
        os << "]}";
        first = false;
    }
    os << "}}\n";
}

int
writeReferenceFile(const std::string &name, uint64_t seed,
                   const std::string &dir)
{
    const BenchWorkload w = makeBenchWorkload(name, seed, false);
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.check_digests = w.check_digests;
    SweepRunner runner(opts);
    ResultTable table = runner.run(makePlan(w));
    if (table.failures())
        fatal(name + ": " + std::to_string(table.failures()) +
              " cells failed; no reference written");
    Reference ref;
    ref.cells = cellStats(table);
    if (w.sampling.sampling()) {
        ResultTable full = runner.run(makeFullDetailPlan(w));
        for (size_t i = 0; i < full.size(); i++) {
            const CoreStats &c = full.results()[i].core;
            if (!full.results()[i].ok() || !c.instructions)
                fatal(full.points()[i].id() + ": full-detail run failed");
            ref.full_detail_cpi[full.points()[i].id()] =
                double(c.cycles) / double(c.instructions);
        }
    }
    const std::string path = referencePath(dir, name, seed);
    writeReference(path, w, seed, ref);
    inform("wrote " + path);
    return 0;
}

JsonValue
readJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read '" + path + "'");
    std::stringstream ss;
    ss << in.rdbuf();
    return JsonValue::parse(path, ss.str());
}

int
aggregate(const std::string &records, const std::string &out,
          const std::string &commit)
{
    std::ifstream in(records);
    if (!in)
        fatal("cannot read record file '" + records + "'");
    // workload -> metric -> (unit, per-round values, sample count)
    struct Series
    {
        std::string unit;
        std::vector<double> rounds;
        size_t samples = 0;
    };
    std::map<std::string, std::map<std::string, Series>> by_workload;
    bool all_correct = true;
    size_t runs = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JsonValue rec = JsonValue::parse(records, line);
        ++runs;
        all_correct = all_correct && rec.at("correct").asBool();
        const std::string w = rec.at("workload").asString();
        const JsonValue &metrics = rec.at("metrics");
        for (const auto &k : metrics.keys()) {
            Series &s = by_workload[w][k];
            s.unit = metrics.at(k).at("unit").asString();
            s.rounds.push_back(metrics.at(k).at("value").asF64());
            s.samples += metrics.at(k).at("samples").asArray().size();
        }
        // Correctness counts; an absent one (no reference) stays absent.
        for (const char *k : {"cells", "cells_failed",
                              "stats_mismatch_cells", "cpi_err_pct"}) {
            if (rec.at(k).isNull())
                continue;
            Series &s = by_workload[w][k];
            s.unit = std::string(k) == "cpi_err_pct" ? "%" : "count";
            s.rounds.push_back(rec.at(k).asF64());
        }
    }
    if (!runs)
        fatal("no runs recorded in '" + records + "'");

    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1;
    std::ofstream os(out, std::ios::trunc);
    if (!os)
        fatal("cannot write '" + out + "'");
    os << "{\n\"commit\": \"" << jsonEscape(commit) << "\",\n"
       << "\"build_type\": \"" << VRBENCH_BUILD_TYPE << "\",\n"
       << "\"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "\"loadavg\": [" << num(load[0]) << ", " << num(load[1])
       << ", " << num(load[2]) << "],\n"
       << "\"correct\": " << (all_correct ? "true" : "false") << ",\n"
       << "\"workloads\": {";
    bool first_w = true;
    for (const auto &[w, metrics] : by_workload) {
        os << (first_w ? "" : ",") << "\n\"" << w << "\": {";
        bool first_m = true;
        for (const auto &[k, s] : metrics) {
            const double med = median(s.rounds);
            const auto [q1, q3] = quartiles(s.rounds);
            std::cout << w << " " << k << " " << num(med) << " " << s.unit
                      << "\n";
            os << (first_m ? "" : ",") << "\n  \"" << k
               << "\": {\"unit\": \"" << s.unit
               << "\", \"median\": " << num(med)
               << ", \"iqr\": " << num(q3 - q1)
               << ", \"samples\": " << s.samples << ", \"rounds\": [";
            for (size_t i = 0; i < s.rounds.size(); i++)
                os << (i ? ", " : "") << num(s.rounds[i]);
            os << "]}";
            first_m = false;
        }
        os << "}";
        first_w = false;
    }
    os << "\n}\n}\n";
    inform("results written to " + out);
    return all_correct ? 0 : EXIT_INCORRECT;
}

/**
 * Tiny-scale run of every workload listed in @p bench_json, seeds 1
 * and 2, traced and untraced, checked against the metric list.
 */
int
selfTest(const std::string &bench_json)
{
    const JsonValue bench = readJson(bench_json);
    const std::regex valid_name("[A-Za-z0-9_.-]+");
    std::vector<std::string> problems;
    auto expected = [&](const char *key) {
        std::map<std::string, std::string> units;
        for (const JsonValue &m : bench.at(key).asArray())
            units[m.at("name").asString()] = m.at("unit").asString();
        return units;
    };
    const auto e2e = expected("end_to_end");
    const auto layers = expected("per_layer");
    for (const auto *set : {&e2e, &layers})
        for (const auto &[name, unit] : *set)
            if (!std::regex_match(name, valid_name))
                problems.push_back("bad metric name '" + name + "'");

    for (const JsonValue &wj : bench.at("workloads").asArray()) {
        const std::string w = wj.at("name").asString();
        if (!std::regex_match(w, valid_name))
            problems.push_back("bad workload name '" + w + "'");
        std::map<uint64_t, uint64_t> fingerprints;
        for (uint64_t seed : {1, 2}) {
            for (bool trace : {false, true}) {
                Outcome o = runBenchmark(w, seed, 0.0, trace, true, "");
                fingerprints[seed] = o.fingerprint;
                const std::string tag = w + " seed " +
                    std::to_string(seed) + (trace ? " traced" : "");
                for (const auto &e : o.errors)
                    problems.push_back(tag + ": " + e);
                if (!o.correct())
                    problems.push_back(tag + ": not correct");
                const auto &want = trace ? layers : e2e;
                for (const auto &[name, unit] : want) {
                    auto it = o.metrics.find(name);
                    if (it == o.metrics.end())
                        problems.push_back(tag + ": no metric " + name);
                    else if (it->second.unit != unit)
                        problems.push_back(tag + ": " + name + " in " +
                                           it->second.unit + ", not " +
                                           unit);
                }
                for (const auto &[name, m] : o.metrics)
                    if (!want.count(name))
                        problems.push_back(tag + ": unlisted metric " +
                                           name);
            }
        }
        if (fingerprints[1] == fingerprints[2])
            problems.push_back(w + ": seeds 1 and 2 give the same "
                                   "inputs");
        inform("self-test: " + w + " done");
    }
    for (const auto &p : problems)
        std::cerr << "vrbench: self-test: " << p << "\n";
    std::cout << "self-test " << (problems.empty() ? "passed" : "FAILED")
              << "\n";
    return problems.empty() ? 0 : EXIT_INCORRECT;
}

} // namespace

int
main(int argc, char **argv)
{
    // Host timing never enters the per-cell stats that are compared.
    setProfileColumns(false);

    std::string workload, reference_dir, record, aggregate_in, out,
        commit = "unknown", self_test;
    uint64_t seed = 1;
    double seconds = 25.0;
    bool trace = false, write_ref = false;
    try {
        for (int i = 1; i < argc; i++) {
            const std::string a = argv[i];
            auto value = [&]() -> const char * {
                if (i + 1 >= argc)
                    usage(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload") workload = value();
            else if (a == "--seed") seed = parseU64(a, value());
            else if (a == "--seconds") seconds = parseF64(a, value());
            else if (a == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1, not '" + v + "'");
                trace = v == "1";
            }
            else if (a == "--reference-dir") reference_dir = value();
            else if (a == "--record") record = value();
            else if (a == "--write-reference") write_ref = true;
            else if (a == "--aggregate") aggregate_in = value();
            else if (a == "--out") out = value();
            else if (a == "--commit") commit = value();
            else if (a == "--self-test") self_test = value();
            else usage("unknown argument '" + a + "'");
        }
        if (seconds < 0)
            usage("--seconds must not be negative");
    } catch (const FatalError &e) {
        usage(e.what());
    }

    try {
        if (!self_test.empty())
            return selfTest(self_test);
        if (!aggregate_in.empty()) {
            if (out.empty())
                usage("--aggregate needs --out FILE");
            return aggregate(aggregate_in, out, commit);
        }
        if (workload.empty())
            usage("no --workload given");
        try {
            makeBenchWorkload(workload, seed, false);
        } catch (const FatalError &e) {
            usage(e.what());
        }
        if (write_ref) {
            if (reference_dir.empty())
                usage("--write-reference needs --reference-dir DIR");
            return writeReferenceFile(workload, seed, reference_dir);
        }
        Outcome o = runBenchmark(workload, seed, seconds, trace, false,
                                 reference_dir);
        if (!record.empty())
            appendRecord(record, o);
        printOutcome(o);
        return o.correct() ? 0 : EXIT_INCORRECT;
    } catch (const FatalError &e) {
        std::cerr << "vrbench: " << e.what() << "\n";
    } catch (const PanicError &e) {
        std::cerr << "vrbench: " << e.what() << "\n";
    } catch (const HangError &e) {
        std::cerr << "vrbench: " << e.what() << "\n";
    }
    return EXIT_INCORRECT;
}
