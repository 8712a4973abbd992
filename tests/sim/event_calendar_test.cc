/**
 * @file
 * Tests for the event-driven cycle-skipping calendar
 * (sim/event_calendar.hh) and its IntervalResource facade: the skip
 * structure must return bit-identical placements to the linear
 * reference scan in every mode and those of a brute-force first-fit
 * model, an all-stalled backlog must be jumped rather than polled
 * (the probe-count bound), and horizon retirement must free history
 * exactly and trap allocations below the horizon.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mem/interval_resource.hh"
#include "sim/event_calendar.hh"

namespace vrsim
{
namespace
{

/** Restore the process-wide skip mode when a test scope ends. */
struct SkipMode
{
    explicit SkipMode(bool on) { EventCalendar::setSkipEnabled(on); }
    ~SkipMode() { EventCalendar::setSkipEnabled(true); }
};

/** Deterministic allocation workload shared by the mode-equivalence
 *  tests: bursts at a crawling base cycle, with far-future and
 *  far-past reservations interleaved (the non-chronological pattern
 *  the runahead engines produce). */
std::vector<std::pair<Cycle, Cycle>>
mixedSequence(size_t n)
{
    std::vector<std::pair<Cycle, Cycle>> seq;
    uint64_t s = 0x9E3779B97F4A7C15ull;
    Cycle base = 0;
    for (size_t i = 0; i < n; i++) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        base += s % 3;                       // crawling dispatch point
        Cycle earliest = base + s % 4096;    // some far ahead
        Cycle duration = 1 + (s >> 8) % 40;
        seq.emplace_back(earliest, duration);
    }
    return seq;
}

/**
 * Brute-force first-fit over one flat occupancy vector: no chunks, no
 * skip pointers, no range scans. Candidate start buckets are tried in
 * order and each window is checked bucket by bucket; the only shortcut
 * is that a full bucket rules out every start up to and including it.
 */
class FlatFirstFit
{
  public:
    FlatFirstFit(uint32_t capacity, uint32_t shift)
        : cap_(capacity), shift_(shift)
    {}

    Cycle
    allocate(Cycle earliest, Cycle duration)
    {
        if (duration == 0)
            duration = 1;
        Cycle b = earliest >> shift_;
        while (true) {
            Cycle start = std::max(earliest, b << shift_);
            Cycle last = (start + duration - 1) >> shift_;
            Cycle k = b;
            while (k <= last && busy(k) < cap_)
                k++;
            if (k <= last) {
                b = k + 1;
                continue;
            }
            if (last >= used_.size())
                used_.resize(last + 1, 0);
            for (k = b; k <= last; k++)
                ++used_[k];
            return start;
        }
    }

    uint32_t busyAt(Cycle cycle) const { return busy(cycle >> shift_); }

  private:
    uint32_t
    busy(Cycle b) const
    {
        return b < used_.size() ? used_[b] : 0;
    }

    uint32_t cap_;
    uint32_t shift_;
    std::vector<uint32_t> used_;
};

/**
 * Replay @p seq through IntervalResource and the flat model and
 * require identical placements, then identical busyAt() for every
 * cycle up to the end of the last reservation. With a nonzero
 * @p retire_slack the resource retires history every 64 allocations
 * up to @p retire_slack cycles below the earliest start still to
 * come, as the core does behind its dispatch point, and busyAt() is
 * compared only from the first live chunk (retired history reads as
 * free).
 */
void
expectMatchesFlatModel(const std::vector<std::pair<Cycle, Cycle>> &seq,
                       uint32_t cap, uint32_t shift, Cycle retire_slack = 0)
{
    SCOPED_TRACE("cap=" + std::to_string(cap) +
                 " shift=" + std::to_string(shift));
    IntervalResource r(cap, shift);
    FlatFirstFit model(cap, shift);
    // floor[i]: the earliest start among seq[i..], the horizon bound.
    std::vector<Cycle> floor(seq.size() + 1, ~Cycle(0));
    for (size_t i = seq.size(); i-- > 0;)
        floor[i] = std::min(floor[i + 1], seq[i].first);
    Cycle horizon = 0, end = 0;
    for (size_t i = 0; i < seq.size(); i++) {
        auto [e, d] = seq[i];
        Cycle got = r.allocate(e, d);
        ASSERT_EQ(got, model.allocate(e, d)) << "allocation " << i;
        end = std::max(end, got + std::max<Cycle>(d, 1));
        const Cycle next = floor[i + 1];
        if (retire_slack && i % 64 == 63 && next != ~Cycle(0) &&
            next > horizon + retire_slack) {
            horizon = next - retire_slack;
            r.retireBefore(horizon);
        }
    }
    const Cycle chunk_cycles = Cycle(EventCalendar::CHUNK_SIZE) << shift;
    const Cycle live = horizon / chunk_cycles * chunk_cycles;
    if (retire_slack) {
        EXPECT_GT(live, 0u) << "sequence too short to retire a chunk";
    }
    for (Cycle c = live; c < end + (Cycle(1) << shift); c++)
        ASSERT_EQ(r.busyAt(c), model.busyAt(c)) << "cycle " << c;
}

TEST(EventCalendarTest, PlacementsMatchFlatFirstFitModel)
{
    const auto seq = mixedSequence(3000);
    for (bool skip : {true, false}) {
        SkipMode m(skip);
        SCOPED_TRACE(skip ? "skip" : "linear");
        for (uint32_t shift : {0u, 3u}) {
            for (uint32_t cap : {1u, 2u, 8u, 24u})
                expectMatchesFlatModel(seq, cap, shift);
        }
    }
}

TEST(EventCalendarTest, ChunkStraddlingWindowsMatchFlatModel)
{
    // Every reservation starts within 40 buckets of a chunk boundary,
    // and some are longer than a whole chunk, so range scans and fills
    // cross one or more boundaries.
    const Cycle C = EventCalendar::CHUNK_SIZE;
    for (uint32_t shift : {0u, 3u}) {
        std::vector<std::pair<Cycle, Cycle>> seq;
        uint64_t s = 0x2545F4914F6CDD1Dull;
        for (int i = 0; i < 1500; i++) {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            Cycle boundary = (1 + s % 4) * C;
            Cycle earliest = ((boundary - 40 + (s >> 8) % 60) << shift) +
                             (s >> 20) % (1u << shift);
            Cycle duration = i % 50 == 0 ? (C + 100) << shift
                                         : 1 + (s >> 32) % (64u << shift);
            seq.emplace_back(earliest, duration);
        }
        for (uint32_t cap : {1u, 3u, 24u})
            expectMatchesFlatModel(seq, cap, shift);
    }
}

TEST(EventCalendarTest, RetiredHistoryKeepsFlatModelPlacements)
{
    // A dispatch point crawling across several chunks with reservations
    // up to 2000 cycles ahead of it, retiring history 1000 cycles
    // behind: placements stay those of the flat model, which never
    // retires, and so does occupancy at and above the horizon.
    std::vector<std::pair<Cycle, Cycle>> seq;
    uint64_t s = 0x9E3779B97F4A7C15ull;
    Cycle base = 0;
    for (int i = 0; i < 4000; i++) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        base += 10 + s % 20;
        seq.emplace_back(base + s % 2000, 1 + (s >> 8) % 40);
    }
    for (uint32_t shift : {0u, 3u}) {
        for (uint32_t cap : {1u, 2u, 24u})
            expectMatchesFlatModel(seq, cap, shift, /*retire_slack=*/1000);
    }
}

TEST(EventCalendarTest, ProbeCountOfFixedSequenceIsPinned)
{
    // probes() counts buckets examined, whatever loop examines them,
    // so the per-chunk range scan must count exactly what one
    // nextFree() per bucket of the window counted. These are the
    // per-bucket implementation's values.
    auto probes = [](bool skip) {
        SkipMode m(skip);
        IntervalResource r(2, 3);
        for (auto [e, d] : mixedSequence(3000))
            r.allocate(e, d);
        return r.probes();
    };
    EXPECT_EQ(probes(true), 17398u);
    EXPECT_EQ(probes(false), 5546925u);
}

TEST(EventCalendarTest, SkipMatchesLinearReferencePlacements)
{
    for (uint32_t shift : {0u, 3u}) {
        for (uint32_t cap : {1u, 2u, 8u}) {
            auto seq = mixedSequence(3000);
            std::vector<Cycle> lin, skp;
            {
                SkipMode m(false);
                IntervalResource r(cap, shift);
                for (auto [e, d] : seq)
                    lin.push_back(r.allocate(e, d));
            }
            {
                SkipMode m(true);
                IntervalResource r(cap, shift);
                for (auto [e, d] : seq)
                    skp.push_back(r.allocate(e, d));
            }
            ASSERT_EQ(lin, skp) << "cap=" << cap << " shift=" << shift;
        }
    }
}

TEST(EventCalendarTest, ModeResolvedAtConstruction)
{
    SkipMode m(false);
    IntervalResource linear(1, 0);
    EventCalendar::setSkipEnabled(true);
    IntervalResource skipping(1, 0);
    linear.allocate(0, 1);
    skipping.allocate(0, 1);
    // Identical placements either way; only the probe accounting
    // reveals the mode, and each instance keeps the mode it was
    // built with.
    EXPECT_EQ(linear.allocate(0, 1), 1u);
    EXPECT_EQ(skipping.allocate(0, 1), 1u);
}

TEST(EventCalendarTest, AllStalledBacklogIsSkippedNotPolled)
{
    // The tentpole regression guard: with every bucket up to the
    // backlog tail full, a linear scan pays O(backlog) probes per
    // allocation (quadratic overall); the skip structure must stay
    // near-constant per allocation. 2000 capacity-1 reservations
    // from the same start cycle model a fully-stalled window backed
    // up behind one resource.
    const int N = 2000;
    uint64_t probes_linear, probes_skip;
    {
        SkipMode m(false);
        IntervalResource r(1, 0);
        for (int i = 0; i < N; i++)
            r.allocate(0, 1);
        probes_linear = r.probes();
    }
    {
        SkipMode m(true);
        IntervalResource r(1, 0);
        for (int i = 0; i < N; i++)
            r.allocate(0, 1);
        probes_skip = r.probes();
        EXPECT_GT(r.skips(), 0u);
    }
    // Linear: sum_i i probes ~ N^2/2. Skip: O(1) amortized per
    // allocation (union-find path compression).
    EXPECT_GE(probes_linear, uint64_t(N) * N / 4);
    EXPECT_LE(probes_skip, uint64_t(N) * 8);
    EXPECT_LT(probes_skip * 50, probes_linear);
}

TEST(EventCalendarTest, RetireBeforeFreesAndTraps)
{
    EventCalendar cal(1);
    cal.fill(0, 10);
    cal.fill(100000, 100001);
    EXPECT_EQ(cal.at(5), 1u);
    // Retire everything below bucket 100000 (whole chunks only).
    cal.retireBefore(100000);
    EXPECT_EQ(cal.at(5), 0u);          // history gone, reads as free
    EXPECT_EQ(cal.at(100000), 1u);     // live chunk untouched
    // Allocating below the horizon is a contract violation, not a
    // silent mis-timing.
    EXPECT_THROW(cal.nextFree(5), PanicError);
    EXPECT_THROW(cal.fill(5, 6), PanicError);
    // At/above the horizon still works.
    EXPECT_EQ(cal.nextFree(100000), 100002u);
}

TEST(EventCalendarTest, RetireIsPlacementNeutralAboveHorizon)
{
    // Same allocation stream with and without interleaved retirement
    // must place identically at/above the horizon.
    auto run = [](bool retire) {
        IntervalResource r(2, 0);
        std::vector<Cycle> got;
        for (int i = 0; i < 500; i++) {
            Cycle base = Cycle(i) * 40;
            got.push_back(r.allocate(base + 7, 25));
            got.push_back(r.allocate(base, 13));
            if (retire && i % 50 == 0 && base > 9000)
                r.retireBefore(base - 9000);
        }
        return got;
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(EventCalendarTest, ChunkBoundarySpansAreExact)
{
    // Reservations straddling chunk boundaries must behave exactly
    // like mid-chunk ones.
    const Cycle B = EventCalendar::CHUNK_SIZE;  // first boundary
    IntervalResource r(1, 0);
    EXPECT_EQ(r.allocate(B - 3, 6), B - 3);     // straddles
    EXPECT_EQ(r.allocate(B - 3, 6), B + 3);     // pushed past it
    EXPECT_EQ(r.busyAt(B - 1), 1u);
    EXPECT_EQ(r.busyAt(B + 3), 1u);
}

TEST(EventCalendarTest, EnvDefaultIsSkipping)
{
    // Unless VRSIM_CYCLE_SKIP=0 is exported (the documented linear
    // fallback), calendars skip.
    SkipMode m(true);
    EventCalendar cal(1);
    EXPECT_TRUE(cal.skipping());
}

} // namespace
} // namespace vrsim
