/**
 * @file
 * Workload build artifact cache: splits workload construction into an
 * immutable build product (µop program + pristine memory image +
 * initial registers) built once per spec+scale, and a cheap per-run
 * instantiation that copies the image so stores cannot leak between
 * runs. A full figure sweep builds each benchmark input once instead
 * of once per grid point.
 *
 * Thread-safe: concurrent first requests for the same key build the
 * artifact exactly once (the losers block on the builder's future),
 * so a parallel SweepRunner pool shares one cache without duplicate
 * graph/CSR construction.
 */

#ifndef VRSIM_WORKLOADS_WORKLOAD_CACHE_HH
#define VRSIM_WORKLOADS_WORKLOAD_CACHE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "workloads/workload.hh"

namespace vrsim
{

class WorkloadCache
{
  public:
    /**
     * The immutable build artifact for @p spec at the given scales.
     * Built on first request; later requests (from any thread) share
     * the same object. A failed build (unknown spec, unreadable graph
     * file) rethrows its FatalError to every requester.
     */
    std::shared_ptr<const Workload>
    artifact(const std::string &spec, const GraphScale &gscale = {},
             const HpcDbScale &hscale = {});

    /**
     * A private, runnable copy of the artifact: the returned Workload
     * owns its memory image, so stores during simulation never touch
     * the pristine artifact or any sibling run.
     */
    Workload instantiate(const std::string &spec,
                         const GraphScale &gscale = {},
                         const HpcDbScale &hscale = {});

    /** How many artifacts were actually constructed (cache misses). */
    uint64_t builds() const { return builds_.load(); }

    /** Number of distinct artifacts resident. */
    size_t size() const;

    /** Drop all artifacts (tests; scale changes mid-process). */
    void clear();

    /**
     * The process-wide cache the driver layers use by default, giving
     * "each spec is built once per binary" without threading a cache
     * through every call site. Its artifacts live until the process
     * exits.
     */
    static WorkloadCache &process();

    /** Cache key for one spec+scale combination (stable, printable). */
    static std::string key(const std::string &spec,
                           const GraphScale &gscale,
                           const HpcDbScale &hscale);

  private:
    using Slot = std::shared_future<std::shared_ptr<const Workload>>;

    mutable std::mutex mutex_;
    std::map<std::string, Slot> slots_;
    std::atomic<uint64_t> builds_{0};
};

} // namespace vrsim

#endif // VRSIM_WORKLOADS_WORKLOAD_CACHE_HH
