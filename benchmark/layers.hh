/**
 * @file
 * The traced run: per-layer host costs measured from outside the
 * simulator, around calls into its public functions.
 *
 *  - driver/core: the untraced sweep's own per-cell host times;
 *  - runahead: every cell re-run in a harness-built copy of
 *    runWorkload's composition, with the engine behind a forwarding
 *    decorator that times its hooks (the copy must reproduce the
 *    sweep's core statistics and digests exactly);
 *  - isa, digest, frontend, mem: each spec's own instruction, branch
 *    and access stream, captured once with step() and replayed alone
 *    through fastForward/step, StateDigest::retire, BranchPredictor
 *    and MemoryHierarchy::access/warmAccess.
 */

#ifndef VRBENCH_LAYERS_HH
#define VRBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "suite.hh"

namespace vrbench
{

/** One spec's committed stream from the start of its ROI. */
struct Stream
{
    std::string spec;
    vrsim::Workload workload;        //!< the program (image dropped)
    vrsim::CpuState start;           //!< state at the ROI start
    vrsim::MemoryImage start_image;  //!< memory at the ROI start
    std::vector<vrsim::CommitRecord> commits;

    /** A conditional branch of the stream (pc as the core keys it). */
    struct Branch
    {
        uint64_t pc;
        bool taken;
    };

    /** A data access of the stream, at instruction @p index. */
    struct Access
    {
        uint64_t index;
        uint64_t addr;
        uint64_t pc;
        bool is_store;
    };

    std::vector<Branch> branches;
    std::vector<Access> accesses;
};

/** Capture @p insts instructions of every spec, after its ff prefix. */
std::vector<Stream> captureStreams(const BenchWorkload &w,
                                   vrsim::WorkloadCache &cache,
                                   uint64_t insts);

/**
 * Per-layer metrics of one traced round, given the untraced sweep
 * @p untraced that took @p sweep_s seconds. Each consistency failure
 * (traced and untraced cells disagree, the access replay never reached
 * steady state) is appended to @p errors.
 */
Metrics traceRound(const BenchWorkload &w, vrsim::WorkloadCache &cache,
                   const vrsim::ResultTable &untraced, double sweep_s,
                   const std::vector<Stream> &streams,
                   std::vector<std::string> &errors);

} // namespace vrbench

#endif // VRBENCH_LAYERS_HH
