/**
 * @file
 * Event-driven cycle-skipping occupancy calendar.
 *
 * Every capacity-over-time resource in the simulator (MSHR banks,
 * DRAM channels, L1 ports, FU issue ports) answers one question on
 * its hot path: "what is the first bucket at or after B with a free
 * slot?". The original calendars answered it by polling bucket by
 * bucket through a hash map — O(backlog) probes per allocation, and
 * the dominant cost of the whole simulator on memory-bound workloads
 * where thousands of consecutive buckets are full.
 *
 * EventCalendar replaces the poll with an event skip: occupancy lives
 * in flat chunked arrays, and each chunk carries union-find style
 * "next possibly-free bucket" pointers with path compression. Once a
 * bucket is observed full, every later query through it jumps over
 * the entire known-full run in near-constant time. The skip structure
 * is sound because bucket fullness is monotone — reservations are
 * never released, only retired wholesale once the core's dispatch
 * horizon has passed them (retireBefore), so "full" can never revert
 * to "free".
 *
 * The skip layer changes *where the answer is found, never what the
 * answer is*: a skipped bucket is by construction full, so the result
 * is bit-for-bit the bucket the linear poll would have returned.
 * Setting VRSIM_CYCLE_SKIP=0 (or setSkipEnabled(false) in tests)
 * falls back to the linear reference scan so the equivalence is
 * directly testable; the digest oracle (--check-digests) and the
 * stats byte-identity matrix in tests/sim/event_calendar_test.cc
 * gate it in CI. probes()/skips() expose how much scanning actually
 * happened, which is what the all-stalled-window regression test
 * bounds.
 */

#ifndef VRSIM_SIM_EVENT_CALENDAR_HH
#define VRSIM_SIM_EVENT_CALENDAR_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "sim/logging.hh"

namespace vrsim
{

using Cycle = uint64_t;  // mirrors mem/request.hh (no cyclic include)

/**
 * Chunked bucket-occupancy timeline for one resource of `capacity`
 * simultaneous users. Buckets are abstract time units; callers apply
 * their own cycle-to-bucket shift (see mem/interval_resource.hh).
 */
class EventCalendar
{
  public:
    /** Buckets per chunk: the retirement granularity, and the unit of
     *  storage growth (one chunk = 24 KB). */
    static constexpr uint32_t CHUNK_BITS = 12;
    static constexpr uint32_t CHUNK_SIZE = 1u << CHUNK_BITS;

    explicit EventCalendar(uint32_t capacity)
        : capacity_(capacity), skip_(skipEnabled())
    {
        panicIfNot(capacity > 0, "calendar needs capacity");
    }

    /**
     * Process-wide mode switch, resolved from VRSIM_CYCLE_SKIP at
     * first use (unset or any value but "0" = skipping on). Captured
     * per instance at construction so a run's behaviour cannot change
     * midway; tests flip it between runs via setSkipEnabled().
     */
    static bool
    skipEnabled()
    {
        int m = mode().load(std::memory_order_relaxed);
        if (m < 0) {
            const char *e = std::getenv("VRSIM_CYCLE_SKIP");
            m = (e && e[0] == '0' && e[1] == '\0') ? 0 : 1;
            mode().store(m, std::memory_order_relaxed);
        }
        return m != 0;
    }

    /** Override the mode for calendars constructed from now on. */
    static void
    setSkipEnabled(bool on)
    {
        mode().store(on ? 1 : 0, std::memory_order_relaxed);
    }

    /** Whether this instance was built with skipping on. */
    bool skipping() const { return skip_; }

    /** Occupancy of bucket @p b (0 for untouched or retired ones). */
    uint32_t
    at(Cycle b) const
    {
        size_t ci = size_t(b >> CHUNK_BITS);
        if (ci < retired_chunks_ || ci >= chunks_.size() || !chunks_[ci])
            return 0;
        return chunks_[ci]->used[b & (CHUNK_SIZE - 1)];
    }

    /**
     * First bucket >= @p b whose occupancy is below capacity. Mutates
     * only the skip pointers (the answer itself is mode-independent).
     */
    Cycle
    nextFree(Cycle b)
    {
        size_t ci = size_t(b >> CHUNK_BITS);
        panicIfNot(ci >= retired_chunks_,
                   "calendar probed retired history (allocation below "
                   "the dispatch horizon)");
        while (true) {
            if (ci >= chunks_.size() || !chunks_[ci]) {
                // Untouched chunk: every bucket is empty.
                ++probes_;
                return b;
            }
            Chunk &c = *chunks_[ci];
            uint32_t idx = uint32_t(b & (CHUNK_SIZE - 1));
            uint32_t f = skip_ ? findFrom(c, idx) : scanFrom(c, idx);
            if (f < CHUNK_SIZE)
                return (Cycle(ci) << CHUNK_BITS) + f;
            ++ci;
            b = Cycle(ci) << CHUNK_BITS;
        }
    }

    /**
     * First bucket in [@p lo, @p hi] at full capacity, or hi + 1 when
     * every bucket in the range has a free slot. One tight loop over
     * `used[]` per chunk; it counts one probe per free bucket passed,
     * exactly what a nextFree() call per bucket would count, and it
     * leaves the skip pointers alone, so a caller that resumes with
     * nextFree() at the returned bucket sees the same probes and
     * pointers as the per-bucket walk.
     */
    Cycle
    firstFull(Cycle lo, Cycle hi)
    {
        panicIfNot(lo > hi || size_t(lo >> CHUNK_BITS) >= retired_chunks_,
                   "calendar probed retired history (allocation below "
                   "the dispatch horizon)");
        for (Cycle b = lo; b <= hi;) {
            size_t ci = size_t(b >> CHUNK_BITS);
            uint32_t i = uint32_t(b & (CHUNK_SIZE - 1));
            uint32_t e = lastIndexIn(ci, hi);
            if (ci < chunks_.size() && chunks_[ci]) {
                const uint32_t *used = chunks_[ci]->used.data();
                for (uint32_t k = i; k <= e; k++) {
                    if (used[k] >= capacity_) {
                        probes_ += k - i;
                        return (Cycle(ci) << CHUNK_BITS) + k;
                    }
                }
            }
            // Untouched chunks are empty: every bucket is free.
            probes_ += e - i + 1;
            b = (Cycle(ci) << CHUNK_BITS) + e + 1;
        }
        return hi + 1;
    }

    /** Add one user to every bucket in [@p first_b, @p last_b]. */
    void
    fill(Cycle first_b, Cycle last_b)
    {
        // Buckets only grow from first_b, so one horizon check covers
        // the whole range.
        panicIfNot(first_b > last_b ||
                       size_t(first_b >> CHUNK_BITS) >= retired_chunks_,
                   "calendar filled retired history (allocation below "
                   "the dispatch horizon)");
        for (Cycle b = first_b; b <= last_b;) {
            size_t ci = size_t(b >> CHUNK_BITS);
            uint32_t i = uint32_t(b & (CHUNK_SIZE - 1));
            uint32_t e = lastIndexIn(ci, last_b);
            if (ci >= chunks_.size())
                chunks_.resize(ci + 1);
            if (!chunks_[ci]) {
                if (!pool_.empty()) {
                    chunks_[ci] = std::move(pool_.back());
                    pool_.pop_back();
                    chunks_[ci]->reset();
                } else {
                    chunks_[ci] = std::make_unique<Chunk>();
                }
            }
            uint32_t *used = chunks_[ci]->used.data();
            for (uint32_t k = i; k <= e; k++)
                ++used[k];
            b = (Cycle(ci) << CHUNK_BITS) + e + 1;
        }
    }

    /**
     * Drop all storage for chunks wholly below bucket @p b. Callers
     * guarantee no later allocation starts below the horizon; a
     * violation panics in nextFree()/fill() rather than mis-timing.
     * Retired chunks are pooled for reuse, so steady state touches no
     * fresh pages.
     */
    void
    retireBefore(Cycle b)
    {
        size_t ci = size_t(b >> CHUNK_BITS);
        size_t end = ci < chunks_.size() ? ci : chunks_.size();
        for (size_t k = retired_chunks_; k < end; k++) {
            if (chunks_[k])
                pool_.push_back(std::move(chunks_[k]));
        }
        if (ci > retired_chunks_)
            retired_chunks_ = ci;
    }

    /** Buckets whose occupancy was actually examined. */
    uint64_t probes() const { return probes_; }

    /** Buckets jumped over without examination (skip mode only). */
    uint64_t skips() const { return skips_; }

    void
    clear()
    {
        chunks_.clear();
        pool_.clear();
        retired_chunks_ = 0;
        probes_ = 0;
        skips_ = 0;
    }

  private:
    struct Chunk
    {
        std::array<uint32_t, CHUNK_SIZE> used{};
        // Skip pointers are stored as deltas so an all-zero chunk is
        // the valid initial state (value-init = one memset, and pooled
        // chunks re-zero cheaply):
        //   next[i] == 0: bucket i's fullness is unknown, examine it.
        //   next[i] == d: buckets [i, i + d) are known full.
        std::array<uint16_t, CHUNK_SIZE> next{};

        void
        reset()
        {
            used.fill(0);
            next.fill(0);
        }
    };

    /** In-chunk index of the last bucket of chunk @p ci that is at
     *  or below bucket @p hi (which is in or after that chunk). */
    static uint32_t
    lastIndexIn(size_t ci, Cycle hi)
    {
        return size_t(hi >> CHUNK_BITS) == ci
                   ? uint32_t(hi & (CHUNK_SIZE - 1))
                   : CHUNK_SIZE - 1;
    }

    static std::atomic<int> &
    mode()
    {
        static std::atomic<int> m{-1};
        return m;
    }

    /** Linear reference scan (VRSIM_CYCLE_SKIP=0). */
    uint32_t
    scanFrom(const Chunk &c, uint32_t i)
    {
        for (; i < CHUNK_SIZE; i++) {
            ++probes_;
            if (c.used[i] < capacity_)
                return i;
        }
        return CHUNK_SIZE;
    }

    /** Union-find skip with path halving (deltas; 0 = examine). */
    uint32_t
    findFrom(Chunk &c, uint32_t i)
    {
        while (i < CHUNK_SIZE) {
            uint32_t d = c.next[i];
            if (d == 0) {
                ++probes_;
                if (c.used[i] < capacity_)
                    return i;
                // Observed full; fullness is monotone, so this edge
                // stays valid forever.
                c.next[i] = 1;
                ++i;
            } else {
                uint32_t n = i + d;
                // Invariant: i + next[i] <= CHUNK_SIZE, so the halved
                // delta below still fits and never points past the
                // chunk.
                if (n < CHUNK_SIZE && c.next[n] != 0)
                    c.next[i] = uint16_t(n + c.next[n] - i);
                skips_ += d;
                i = n;
            }
        }
        return CHUNK_SIZE;
    }

    uint32_t capacity_;
    bool skip_;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::vector<std::unique_ptr<Chunk>> pool_;  //!< retired, reusable
    size_t retired_chunks_ = 0;
    uint64_t probes_ = 0;
    uint64_t skips_ = 0;
};

} // namespace vrsim

#endif // VRSIM_SIM_EVENT_CALENDAR_HH
