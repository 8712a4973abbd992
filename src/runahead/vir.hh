/**
 * @file
 * Vector Issue Register timing model (paper §4.2.2, Fig. 5): the
 * single in-order issue slot of the subthread. Each vectorized
 * instruction is issued as up to 16 AVX-512 copies in sequence, one
 * copy per cycle when an execution port is free; vectorized loads
 * split into scalar gathers in the LSQ, each allocating its own MSHR.
 */

#ifndef VRSIM_RUNAHEAD_VIR_HH
#define VRSIM_RUNAHEAD_VIR_HH

#include <cstdint>

#include "mem/request.hh"
#include "runahead/reconv_stack.hh"
#include "sim/config.hh"

namespace vrsim
{

/**
 * VIR pacing model. Tracks the subthread's issue timeline: the cycle
 * at which the next vector copy may issue.
 */
class VectorIssueRegister
{
  public:
    explicit VectorIssueRegister(const RunaheadConfig &cfg)
        : lanes_per_vector_(cfg.lanes_per_vector)
    {}

    /** Start a new invocation at @p cycle. */
    void
    start(Cycle cycle)
    {
        time_ = cycle;
    }

    /**
     * Issue one (possibly vectorized) instruction over the lanes in
     * @p mask. Scalar instructions take one slot; vectorized ones take
     * one slot per AVX-512 copy (ceil(lanes/8)).
     *
     * @return the cycle of the *first* copy's issue; per-copy issue
     *         cycles are first + copy_index.
     */
    Cycle
    issue(const LaneMask &mask, bool vectorized)
    {
        Cycle first = time_;
        uint32_t copies = 1;
        if (vectorized) {
            uint32_t lanes = uint32_t(mask.count());
            copies = (lanes + lanes_per_vector_ - 1) / lanes_per_vector_;
            if (copies == 0)
                copies = 1;
        }
        time_ += copies;
        issued_copies_ += copies;
        return first;
    }

    /**
     * Which copy (0-based) a lane belongs to. Copies are formed over
     * the active lanes in lane order, so a lane's copy follows from
     * its @p rank: the number of active lanes before it. Callers count
     * ranks as they walk the lanes (see LaneExecutor::run).
     */
    uint32_t
    copyOf(uint32_t rank) const
    {
        return rank / lanes_per_vector_;
    }

    /** Advance the timeline to at least @p cycle (stall). */
    void
    waitUntil(Cycle cycle)
    {
        if (cycle > time_)
            time_ = cycle;
    }

    Cycle now() const { return time_; }
    uint64_t issuedCopies() const { return issued_copies_; }

  private:
    uint32_t lanes_per_vector_;
    Cycle time_ = 0;
    uint64_t issued_copies_ = 0;
};

} // namespace vrsim

#endif // VRSIM_RUNAHEAD_VIR_HH
