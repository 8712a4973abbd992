#include "driver/sweep_runner.hh"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "driver/repro.hh"
#include "rt/cell_supervisor.hh"
#include "sim/parse.hh"

namespace vrsim
{

namespace
{

/** Key of the baseline cell a point is differentially checked
 *  against: same spec and config variant, OoO column. */
std::string
baselineKey(const RunPoint &p)
{
    return p.spec + "\x1f" + p.variant;
}

} // namespace

Isolation
isolationFromName(const std::string &name)
{
    if (name == "thread")
        return Isolation::Thread;
    if (name == "process")
        return Isolation::Process;
    fatal("unknown isolation mode '" + name +
          "' (valid: thread, process)");
}

unsigned
SweepRunner::jobsFromEnv(unsigned dflt)
{
    uint64_t jobs = envU64("VRSIM_JOBS", dflt);
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    if (jobs > 4096)
        fatal("VRSIM_JOBS=" + std::to_string(jobs) +
              " is absurd (max 4096)");
    return unsigned(jobs);
}

ResultTable
SweepRunner::run(const RunPlan &plan)
{
    std::vector<RunPoint> points = plan.points();
    std::vector<SimResult> results(points.size());
    std::vector<char> have(points.size(), 0);
    WorkloadCache &cache =
        opts_.cache ? *opts_.cache : WorkloadCache::process();

    // Resolve the effective isolation mode. Tracing is an in-process
    // shared stream, so a traced sweep falls back to thread isolation;
    // chaos and process-grade inject kinds *require* the process
    // backend (executing them in a worker thread would kill the whole
    // sweep — the exact failure isolation exists to prevent).
    Isolation isolation = opts_.isolation;
    if (opts_.trace && isolation == Isolation::Process) {
        warn("tracing is in-process (one shared event stream); "
             "falling back to --isolation thread");
        isolation = Isolation::Thread;
    }
    if (opts_.cell.chaos.enabled() && isolation != Isolation::Process)
        fatal("--chaos requires --isolation process");
    if (isolation != Isolation::Process) {
        for (const RunPoint &p : points)
            if (injectKindIsProcessGrade(p.inject_kind))
                fatal("point " + p.id() + " injects a process-grade "
                      "fault (" +
                      std::string(injectKindName(p.inject_kind)) +
                      "); requires --isolation process");
    }

    // Differential checking collects a digest on every point and
    // needs an OoO baseline cell per (spec, variant).
    std::map<std::string, size_t> baseline_of;
    if (opts_.check_digests) {
        for (RunPoint &p : points)
            p.cfg.collect_digest = true;
        for (size_t i = 0; i < points.size(); i++)
            if (points[i].technique == Technique::OoO)
                baseline_of.emplace(baselineKey(points[i]), i);
        for (const RunPoint &p : points)
            if (!baseline_of.count(baselineKey(p)))
                fatal("--check-digests: no OoO baseline column for " +
                      p.id() + "; add Technique::OoO to the plan (the "
                      "vrsim CLI adds it automatically)");
    }

    // Resume: restore completed cells from the journal. The journal
    // stores each cell's pre-comparison result, so the digest pass
    // below re-derives Diverged statuses deterministically.
    const uint64_t fingerprint =
        opts_.checkpoint.empty() ? 0 : planFingerprint(points);
    if (opts_.resume) {
        if (opts_.checkpoint.empty())
            fatal("--resume requires --checkpoint FILE");
        auto slots = loadJournal(opts_.checkpoint, fingerprint,
                                 points.size());
        size_t restored = 0;
        for (size_t i = 0; i < slots.size(); i++) {
            if (slots[i]) {
                results[i] = std::move(*slots[i]);
                have[i] = 1;
                ++restored;
            }
        }
        if (restored)
            inform("resume: restored " + std::to_string(restored) +
                   "/" + std::to_string(points.size()) +
                   " completed points from " + opts_.checkpoint);
    }

    // (Re)write the journal: header plus any restored cells, so a
    // torn tail from a killed run is compacted away and appends keep
    // the file consistent for the next resume.
    std::ofstream journal;
    std::mutex journal_mutex;
    if (!opts_.checkpoint.empty()) {
        journal.open(opts_.checkpoint, std::ios::trunc);
        if (!journal)
            fatal("cannot write checkpoint journal '" +
                  opts_.checkpoint + "'");
        journal << journalHeaderLine(fingerprint, points.size())
                << "\n";
        for (size_t i = 0; i < points.size(); i++)
            if (have[i])
                journal << journalEntryLine(i, points[i], results[i])
                        << "\n";
        journal.flush();
    }

    unsigned jobs = opts_.jobs ? opts_.jobs : jobsFromEnv();
    jobs = unsigned(
        std::min<size_t>(jobs, std::max<size_t>(1, points.size())));
    if (opts_.trace && jobs > 1) {
        warn("tracing writes one shared event stream; forcing "
             "--jobs 1 for a deterministic trace");
        jobs = 1;
    }

    // Each point's --ff-insts prefix runs once per key, here, before
    // the pool starts. That also keeps process mode fork-safe: every
    // artifact is built in the parent by threads joined before any
    // fork, so the cache's mutex and its futures are quiescent at
    // every fork (children only ever hit warm cache entries). A
    // failed build is re-encountered by each of its points, which
    // report it as their own row.
    SweepStarts starts(points, have, cache, jobs);
    start_builds_ = starts.builds();

    // What each cell actually executed (chaos may mutate a point);
    // repro bundles record this so --replay reproduces the fault.
    std::vector<RunPoint> as_run = points;
    std::atomic<uint64_t> cells_retried{0};
    std::atomic<uint64_t> cells_crashed{0};
    std::atomic<uint64_t> cells_timed_out{0};
    std::atomic<uint64_t> backoff_ms_total{0};

    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    const bool progress = opts_.progress;
    size_t todo = 0;
    for (char h : have)
        todo += !h;

    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= points.size())
                return;
            if (have[i])
                continue;
            const RunPoint &p = points[i];
            // Tag this thread's warn()/inform() lines with the point
            // so interleaved diagnostics stay attributable.
            setLogContext(p.id());
            SimResult r;
            std::optional<RunStart> from = starts.take(i);
            if (isolation == Isolation::Process) {
                // The child inherits the start across the fork.
                CellSupervisor sup(opts_.cell, cache);
                CellOutcome cell = sup.runCell(p, from ? &*from : nullptr);
                r = std::move(cell.result);
                as_run[i] = std::move(cell.as_run);
                if (cell.retried())
                    cells_retried.fetch_add(1);
                backoff_ms_total.fetch_add(cell.backoff_ms_total);
                if (r.status == SimStatus::Crashed)
                    cells_crashed.fetch_add(1);
                else if (r.status == SimStatus::TimedOut)
                    cells_timed_out.fetch_add(1);
            } else if (from) {
                r = simulate(p, cache, std::move(*from), opts_.trace);
            } else {
                r = simulate(p, cache, opts_.trace);
            }
            setLogContext("");
            size_t n = done.fetch_add(1) + 1;
            if (!r.ok())
                warn(p.id() + " failed (" + simStatusName(r.status) +
                     "): " + r.status_message);
            if (progress) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "IPC %.3f", r.ipc());
                inform("[" + std::to_string(n) + "/" +
                       std::to_string(todo) + "] " + p.id() +
                       " " + simStatusName(r.status) +
                       (r.ok() ? " " + std::string(buf) : ""));
            }
            // Journal the finished cell immediately (append-only,
            // flushed) so a killed run loses at most the in-flight
            // points.
            if (journal.is_open()) {
                std::lock_guard<std::mutex> lock(journal_mutex);
                journal << journalEntryLine(i, p, r) << "\n";
                journal.flush();
            }
            // Results land at the point's plan index: the table order
            // (and all rendered output) is independent of job count
            // and completion order.
            results[i] = std::move(r);
        }
    };

    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; t++)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
    }

    // Sweep-level telemetry (zeros included so a green sweep still
    // shows the counters exist); thread mode leaves it empty to keep
    // existing stats output byte-identical.
    stats_ = StatsRegistry{};
    if (isolation == Isolation::Process) {
        stats_.addCounter("sweep.cells.retried",
                          "cells that needed more than one attempt") +=
            cells_retried.load();
        stats_.addCounter("sweep.cells.crashed",
                          "cells whose final attempt died by signal/"
                          "rlimit/bare exit") += cells_crashed.load();
        stats_.addCounter("sweep.cells.timed_out",
                          "cells whose final attempt exceeded the "
                          "wall-clock deadline") += cells_timed_out.load();
        stats_.addGauge("sweep.backoff_ms",
                        "total milliseconds spent in retry backoff") =
            double(backoff_ms_total.load());
    }

    // Differential pass: compare every non-baseline cell's digest
    // against its OoO sibling. Serial and deterministic — run after
    // the pool so restored and fresh cells are treated identically.
    std::vector<std::optional<DigestDivergence>> divergence(
        points.size());
    std::vector<const DigestRecord *> baseline_digest(points.size(),
                                                      nullptr);
    if (opts_.check_digests) {
        for (size_t i = 0; i < points.size(); i++) {
            const RunPoint &p = points[i];
            if (p.technique == Technique::OoO)
                continue;
            SimResult &r = results[i];
            if (!r.ok())
                continue;
            const SimResult &base =
                results[baseline_of.at(baselineKey(p))];
            if (!base.ok()) {
                warn(p.id() + ": OoO baseline failed (" +
                     simStatusName(base.status) +
                     "); cannot differentially check this cell");
                continue;
            }
            if (!r.digest || !base.digest) {
                // Restored cells from a journal written without
                // --check-digests have no digest to compare.
                warn(p.id() + ": no digest collected (journal from a "
                     "run without --check-digests?); cell unchecked");
                continue;
            }
            auto div = compareDigests(*base.digest, *r.digest);
            if (div) {
                r.status = SimStatus::Diverged;
                r.status_message =
                    "committed-state digest diverged from the OoO "
                    "baseline at " + div->toString();
                divergence[i] = *div;
                baseline_digest[i] = &*base.digest;
                warn(p.id() + " failed (diverged): " +
                     r.status_message);
            }
        }
    }

    // Repro bundles for every failed cell, Diverged included.
    if (!opts_.repro_dir.empty()) {
        for (size_t i = 0; i < points.size(); i++) {
            const SimResult &r = results[i];
            if (r.ok())
                continue;
            ReproBundle b;
            // The as-executed point (chaos mutation included), so a
            // --replay of the bundle reproduces the injected fault.
            b.point = as_run[i];
            b.status = r.status;
            b.status_message = r.status_message;
            if (baseline_digest[i])
                b.baseline_digest = *baseline_digest[i];
            if (divergence[i])
                b.divergence = divergence[i];
            std::string path = writeReproBundle(opts_.repro_dir, b);
            inform(points[i].id() + ": repro bundle written to " +
                   path + " (re-run with: vrsim --replay " + path +
                   ")");
        }
    }

    return ResultTable(std::move(points), std::move(results));
}

} // namespace vrsim
