#include "rt/cell_supervisor.hh"

#include <csignal>
#include <cstring>
#include <new>
#include <thread>

#include "driver/repro.hh"
#include "obs/self_profile.hh"
#include "sim/logging.hh"

#include <unistd.h>

namespace vrsim
{

namespace
{

/** How many relayed child-stderr lines to print per cell before
 *  summarizing; a crash-looping cell cannot flood the sweep log. */
constexpr size_t kRelayLines = 8;

/** Execute a process-grade injected fault inside the child. Never
 *  returns normally: the point of these kinds is to kill or wedge
 *  this process so the parent's supervision is what saves the sweep. */
[[noreturn]] void
executeProcessFault(InjectKind kind, uint32_t arg)
{
    switch (kind) {
      case InjectKind::Segv: {
        volatile int *p = nullptr;
        *p = 42;
        std::abort();  // unreachable unless SIGSEGV is being traced
      }
      case InjectKind::Oom: {
        // Allocate-and-touch until RLIMIT_AS says no; self-bound at
        // 256 MiB so an uncapped (e.g. sanitizer) child still dies
        // promptly instead of eating the host.
        constexpr size_t kChunk = 8u << 20;
        constexpr size_t kSelfBound = 256u << 20;
        size_t total = 0;
        for (;;) {
            char *m = new (std::nothrow) char[kChunk];
            if (!m)
                std::abort();
            std::memset(m, 0xA5, kChunk);
            total += kChunk;
            if (total >= kSelfBound)
                std::abort();
        }
      }
      case InjectKind::Spin: {
        volatile uint64_t burn = 0;
        for (;;)
            burn = burn + 1;
      }
      case InjectKind::ExitCode:
        _exit(int(arg));
      case InjectKind::KillSelf:
        raise(int(arg));
        // A caught/ignored signal must still end the attempt without
        // a result line.
        _exit(82);
      default:
        _exit(80);  // not a process-grade kind; supervisor bug
    }
}

/**
 * Print the child's captured stderr through the parent's serialized
 * log (the caller's log context tags each line with the point ID):
 * the first kRelayLines lines verbatim, the rest summarized via the
 * rate-limited warn() so a crash-looping cell cannot flood the sweep
 * output.
 */
void
relayChildStderr(const std::string &point_id, const ChildOutcome &out)
{
    if (out.stderr_text.empty() && out.stderr_dropped == 0)
        return;
    size_t lines = 0, start = 0, suppressed = 0;
    while (start < out.stderr_text.size()) {
        size_t end = out.stderr_text.find('\n', start);
        size_t len = (end == std::string::npos
                          ? out.stderr_text.size()
                          : end) - start;
        if (len > 0) {
            if (lines < kRelayLines)
                logLine("child", out.stderr_text.substr(start, len));
            else
                suppressed++;
            lines++;
        }
        if (end == std::string::npos)
            break;
        start = end + 1;
    }
    if (suppressed > 0 || out.stderr_dropped > 0)
        warn(point_id + ": child stderr truncated (" +
             std::to_string(suppressed) + " lines suppressed, " +
             std::to_string(out.stderr_dropped) +
             " bytes dropped at the pipe)");
}

} // namespace

CellOutcome
CellSupervisor::runCell(const RunPoint &point)
{
    ResourceCaps caps;
    caps.mem_bytes = opts_.mem_mb << 20;
    caps.cpu_seconds = opts_.cpu_s;

    CellOutcome cell;
    cell.as_run = point;

    for (unsigned attempt = 0;; attempt++) {
        RunPoint as_run = point;
        // A point-carried process-grade fault models a transient bug:
        // the inject_attempts knob decides for how many attempts it
        // fires. In-taxonomy kinds always run (they are results, not
        // deaths, and must stay deterministic across attempts).
        if (injectKindIsProcessGrade(as_run.inject_kind) &&
            attempt >= opts_.inject_attempts) {
            as_run.inject_kind = InjectKind::None;
            as_run.inject_arg = 0;
        }
        // Chaos draws per (cell, attempt), so a cell can die on its
        // first attempt and succeed on the retry. Points that already
        // carry a fault are left alone: explicit injection wins.
        if (opts_.chaos.enabled() &&
            as_run.inject_kind == InjectKind::None) {
            if (auto fault = opts_.chaos.decide(point.id(), attempt)) {
                as_run.inject_kind = fault->kind;
                as_run.inject_arg = fault->arg;
            }
        }
        cell.as_run = as_run;
        cell.attempts = attempt + 1;

        WorkloadCache &cache = cache_;
        ChildOutcome out = Subprocess::run(
            [&as_run, &cache](int result_fd) {
                setLogContext(as_run.id());
                if (injectKindIsProcessGrade(as_run.inject_kind))
                    executeProcessFault(as_run.inject_kind,
                                        as_run.inject_arg);
                SimResult r = simulate(as_run, cache);
                std::string line = resultToJson(r) + "\n";
                return Subprocess::writeAll(result_fd, line) ? 0 : 83;
            },
            caps, opts_.timeout_ms);

        relayChildStderr(point.id(), out);

        if (out.protocol_ok) {
            // The child completed the protocol: its row (possibly a
            // guarded in-taxonomy failure) is the result, identical
            // to what thread isolation would have recorded.
            cell.result = resultFromJson(
                "result from cell " + point.id(), out.result_line);
            // Keep the process-wide throughput accounting whole: the
            // child's counters died with it.
            SelfProfiler::process().addSimulated(
                cell.result.core.instructions, cell.result.core.cycles);
            return cell;
        }

        // Process-grade death. Retry with backoff while attempts
        // remain; the backoff gives a transiently overloaded host
        // (OOM killer, load spike) room to recover.
        if (attempt < opts_.retries) {
            uint64_t delay = opts_.backoff_ms << attempt;
            warn(point.id() + ": cell process died (" +
                 out.status.describe() +
                 (out.timed_out ? ", deadline expired" : "") +
                 "); retrying in " + std::to_string(delay) + " ms (" +
                 std::to_string(opts_.retries - attempt) +
                 " retries left)");
            if (delay)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
            cell.backoff_ms_total += delay;
            continue;
        }

        // Out of attempts: synthesize the crash row.
        SimResult r;
        r.workload = point.spec;
        r.technique = point.technique;
        if (out.timed_out) {
            r.status = SimStatus::TimedOut;
            r.status_message =
                "cell exceeded " + std::to_string(opts_.timeout_ms) +
                " ms wall-clock deadline and was SIGKILLed (attempt " +
                std::to_string(attempt + 1) + "/" +
                std::to_string(opts_.retries + 1) + ")";
        } else {
            r.status = SimStatus::Crashed;
            r.status_message =
                "cell process died: " + out.status.describe() +
                " (attempt " + std::to_string(attempt + 1) + "/" +
                std::to_string(opts_.retries + 1) + ")";
            if (!out.status.exited)
                r.term_signal = out.status.signal;
        }
        r.rss_peak_kb = out.rss_peak_kb;
        cell.result = std::move(r);
        return cell;
    }
}

} // namespace vrsim
