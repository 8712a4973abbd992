/**
 * @file
 * A tag-only set-associative cache with LRU replacement and a bank of
 * miss-status holding registers (MSHRs). Data values live in the
 * functional MemoryImage; this class models timing and occupancy only.
 */

#ifndef VRSIM_MEM_CACHE_HH
#define VRSIM_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/interval_resource.hh"
#include "mem/request.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

namespace vrsim
{

/**
 * Bank of MSHRs. Each in-flight line miss occupies one register from
 * issue until fill. Built on IntervalResource so reservations can be
 * made non-chronologically (see interval_resource.hh). Also
 * integrates occupancy over time so the driver can report average
 * outstanding misses per cycle (Fig. 9's MLP metric).
 */
class MshrBank
{
  public:
    explicit MshrBank(uint32_t entries)
        : entries_(entries), res_(entries, 3)
    {}

    /**
     * Allocate an MSHR for a miss issued at @p cycle whose fill takes
     * @p fill_latency cycles. If the bank is saturated around that
     * time the allocation is delayed.
     *
     * @param fill_out receives the fill-completion cycle
     * @return the cycle the request actually issued
     */
    Cycle
    allocate(Cycle cycle, Cycle fill_latency, Cycle &fill_out)
    {
        Cycle issue = res_.allocate(cycle, fill_latency);
        fill_out = issue + fill_latency;
        return issue;
    }

    /** Number of registers busy around @p cycle. */
    uint32_t busyAt(Cycle cycle) const { return res_.busyAt(cycle); }

    /** Release calendar history wholly before @p cycle. */
    void retireBefore(Cycle cycle) { res_.retireBefore(cycle); }

    uint32_t size() const { return entries_; }
    uint64_t allocations() const { return res_.allocations(); }
    uint64_t stalls() const { return res_.stalls(); }

    /** Calendar buckets examined while searching (perf telemetry). */
    uint64_t probes() const { return res_.probes(); }

    /** Sum over time of busy registers (cycles x registers). */
    uint64_t busyIntegral() const { return res_.busyIntegral(); }

    void reset() { res_.reset(); }

  private:
    uint32_t entries_;
    IntervalResource res_;
};

/**
 * Tag array with LRU replacement. Lines carry their fill time so a
 * demand access arriving before the fill completes observes the
 * remaining fill latency (hit-under-fill), which is what makes
 * prefetch timeliness measurable.
 */
class CacheArray
{
  public:
    CacheArray(std::string name, const CacheConfig &cfg);

    // Wide fields first, so a line packs to 32 bytes (two per
    // host cache line).
    struct Line
    {
        uint64_t tag = 0;   //!< full line address (tag + index)
        Cycle fill_time = 0;   //!< cycle at which data is present
        Cycle last_use = 0;    //!< LRU timestamp
        Requester origin = Requester::Demand;
        bool valid = false;
        bool used_since_fill = false;
    };

    /** Probe for a line; returns nullptr on miss. Updates
     *  replacement state (LRU recency; FIFO/Random ignore it). */
    Line *lookup(uint64_t line_addr, Cycle cycle);

    /** Probe without updating replacement state. */
    const Line *peek(uint64_t line_addr) const;

    /**
     * Insert a line. The victim is the first invalid way, else the
     * configured policy's pick: for LRU/FIFO the first way with the
     * smallest last_use.
     * @return the evicted line if a valid one was displaced.
     */
    std::optional<Line> insert(uint64_t line_addr, Cycle cycle,
                               Cycle fill_time, Requester origin);

    /** Invalidate a line if present (back-invalidation). */
    void invalidate(uint64_t line_addr);

    uint32_t lineBytes() const { return cfg_.line_bytes; }
    uint64_t lineAddr(uint64_t addr) const { return addr >> line_shift_; }

    uint32_t numSets() const { return num_sets_; }
    const std::string &name() const { return name_; }

  private:
    // The ways of one set sit contiguously in a single flat array
    // (no per-set vector indirection), and the set index is a mask
    // when num_sets is a power of two — which every shipped geometry
    // is — instead of a modulo (a hardware divide per probe).
    uint64_t
    setIndex(uint64_t line_addr) const
    {
        return set_mask_ ? (line_addr & set_mask_)
                         : (line_addr % num_sets_);
    }

    Line *set(uint64_t line_addr)
    { return &lines_[setIndex(line_addr) * cfg_.assoc]; }
    const Line *set(uint64_t line_addr) const
    { return &lines_[setIndex(line_addr) * cfg_.assoc]; }

    std::string name_;
    CacheConfig cfg_;
    uint32_t line_shift_;    //!< log2(line_bytes)
    uint32_t num_sets_;
    uint64_t set_mask_ = 0;  //!< num_sets - 1 when a power of two
    std::vector<Line> lines_;  //!< num_sets * assoc, set-major
    uint64_t rand_state_ = 0x2545F4914F6CDD1Dull;  //!< Random policy
};

} // namespace vrsim

#endif // VRSIM_MEM_CACHE_HH
