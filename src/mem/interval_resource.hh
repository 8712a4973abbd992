/**
 * @file
 * A capacity-over-time resource calendar. The instruction-window-
 * centric core (and the decoupled runahead engines) schedule memory
 * accesses non-chronologically: an access with an early issue time
 * may be processed after one scheduled far in the future. Resources
 * with "next free time" state (classic MSHR banks, DRAM channels)
 * mis-model this badly — one far-future reservation would block all
 * earlier traffic. IntervalResource instead tracks per-time-bucket
 * occupancy, so reservations can be made at any point on the
 * timeline.
 *
 * Storage and search live in sim/event_calendar.hh: instead of
 * polling bucket by bucket through a saturated backlog, allocation
 * skips straight to the next possibly-free bucket (docs/
 * performance.md). The placement returned is identical to the
 * linear scan's by construction — every skipped start bucket is
 * known full, hence infeasible — and VRSIM_CYCLE_SKIP=0 restores
 * the linear reference scan for differential testing.
 */

#ifndef VRSIM_MEM_INTERVAL_RESOURCE_HH
#define VRSIM_MEM_INTERVAL_RESOURCE_HH

#include <cstdint>

#include "mem/request.hh"
#include "sim/event_calendar.hh"
#include "sim/logging.hh"

namespace vrsim
{

/**
 * Calendar of a resource with `capacity` simultaneous users, tracked
 * at `1 << bucket_shift`-cycle granularity.
 */
class IntervalResource
{
  public:
    IntervalResource(uint32_t capacity, uint32_t bucket_shift)
        : capacity_(capacity), shift_(bucket_shift), cal_(capacity)
    {
        panicIfNot(capacity > 0, "resource needs capacity");
    }

    /**
     * Reserve the resource for `duration` cycles at the earliest
     * start >= `earliest` with a free slot throughout.
     *
     * First-fit over start buckets, exactly as the historical linear
     * scan: a candidate window is abandoned as soon as it contains a
     * full bucket, and the start jumps past that bucket's known-full
     * run (all intermediate starts are infeasible because each is
     * itself a full bucket or spans one). nextFree() only moves the
     * start; the rest of the window is checked by one range scan.
     *
     * @return the start cycle of the reservation
     */
    Cycle
    allocate(Cycle earliest, Cycle duration)
    {
        if (duration == 0)
            duration = 1;
        Cycle first_b = earliest >> shift_;
        Cycle last_b = (earliest + duration - 1) >> shift_;
        while (true) {
            Cycle f = cal_.nextFree(first_b);
            if (f != first_b) {
                first_b = f;
                last_b = ((first_b << shift_) + duration - 1) >> shift_;
            }
            Cycle full = cal_.firstFull(first_b + 1, last_b);
            if (full > last_b)
                break;
            first_b = cal_.nextFree(full);
            last_b = ((first_b << shift_) + duration - 1) >> shift_;
        }
        cal_.fill(first_b, last_b);
        Cycle start = std::max(earliest, first_b << shift_);
        // Guardrail: the busy integral is monotone by construction;
        // a decrease means the duration arithmetic wrapped (e.g. a
        // fill time earlier than its issue time upstream) and every
        // MLP statistic derived from it would be garbage.
        const uint64_t before = busy_integral_;
        busy_integral_ += duration;
        panicIfNot(busy_integral_ >= before,
                   "MSHR/port busy integral went backwards "
                   "(duration arithmetic wrapped)");
        ++allocations_;
        if (start > earliest)
            ++stalls_;
        return start;
    }

    /** Occupancy of the bucket containing @p cycle. */
    uint32_t
    busyAt(Cycle cycle) const
    {
        return cal_.at(cycle >> shift_);
    }

    /**
     * Release calendar storage for history wholly before @p cycle.
     * The caller promises no future allocation starts below this
     * horizon (the core's dispatch cycle is such a floor: every
     * access — demand, store drain, prefetch, or runahead — issues at
     * or after the dispatch point that triggered it). Violations
     * panic instead of mis-timing.
     */
    void retireBefore(Cycle cycle) { cal_.retireBefore(cycle >> shift_); }

    uint32_t capacity() const { return capacity_; }
    uint64_t allocations() const { return allocations_; }
    uint64_t stalls() const { return stalls_; }

    /** Buckets examined while searching (regression-test bound). */
    uint64_t probes() const { return cal_.probes(); }

    /** Buckets skipped without examination (cycle-skip telemetry). */
    uint64_t skips() const { return cal_.skips(); }

    /** Total reserved cycles (occupancy integral) for MLP stats. */
    uint64_t busyIntegral() const { return busy_integral_; }

    void
    reset()
    {
        cal_.clear();
        busy_integral_ = 0;
        allocations_ = 0;
        stalls_ = 0;
    }

  private:
    uint32_t capacity_;
    uint32_t shift_;
    EventCalendar cal_;
    uint64_t busy_integral_ = 0;
    uint64_t allocations_ = 0;
    uint64_t stalls_ = 0;
};

} // namespace vrsim

#endif // VRSIM_MEM_INTERVAL_RESOURCE_HH
