/**
 * @file
 * The benchmark suite: the four seeded workloads, the sweep each one
 * runs, how a sweep's host cost is counted, and the recorded
 * per-cell references its outputs are checked against.
 */

#ifndef VRBENCH_SUITE_HH
#define VRBENCH_SUITE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver/plan.hh"
#include "workloads/workload_cache.hh"

namespace vrbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One reported number and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics by name, in name order. */
using Metrics = std::map<std::string, Metric>;

/**
 * One workload: every technique column over @p specs at one scale and
 * one execution plan. The seed reaches the inputs through
 * GraphScale::seed and HpcDbScale::seed only.
 */
struct BenchWorkload
{
    std::string name;
    std::vector<std::string> specs;
    vrsim::GraphScale gscale;
    vrsim::HpcDbScale hscale;
    uint64_t roi = 0;               //!< RunPlan::roi
    uint64_t warmup = 0;            //!< RunPlan::warmup
    vrsim::SamplingPlan sampling;   //!< ff prefix and SMARTS windows
    bool check_digests = false;     //!< differential oracle on
};

/** The workload names, in the order a round runs them first. */
const std::vector<std::string> &workloadNames();

/**
 * The workload called @p name with inputs from @p seed; @p smoke
 * shrinks every scale so the whole suite runs in seconds. fatal() on
 * an unknown name.
 */
BenchWorkload makeBenchWorkload(const std::string &name, uint64_t seed,
                                bool smoke);

/** The measured sweep: all eight technique columns over every spec. */
vrsim::RunPlan makePlan(const BenchWorkload &w);

/**
 * The sampled workload's stream in full detail (same ff prefix, the
 * whole ROI detailed): the CPI reference cpi_err_pct is taken against.
 */
vrsim::RunPlan makeFullDetailPlan(const BenchWorkload &w);

/** Instructions a cell advanced functionally (ff prefix + warm ff). */
uint64_t ffInsts(const vrsim::SimResult &r);

/** Instructions a cell simulated in detail (warm + measured). */
uint64_t detailedInsts(const vrsim::RunPoint &p,
                       const vrsim::SimResult &r);

/** Non-host registry values of each cell, keyed by point id. */
using CellStats =
    std::map<std::string, std::map<std::string, double>>;

CellStats cellStats(const vrsim::ResultTable &table);

/** Ids of cells whose stats differ from @p ref (or are missing). */
std::vector<std::string> mismatchedCells(const CellStats &got,
                                         const CellStats &ref);

/** A recorded reference: stats per cell, full-detail CPI per cell. */
struct Reference
{
    CellStats cells;
    std::map<std::string, double> full_detail_cpi;
};

/** reference/<workload>.seed<seed>.json under @p dir. */
std::string referencePath(const std::string &dir,
                          const std::string &workload, uint64_t seed);

/** The reference at @p path, or nullopt when there is none. */
std::optional<Reference> loadReference(const std::string &path);

void writeReference(const std::string &path, const BenchWorkload &w,
                    uint64_t seed, const Reference &ref);

/**
 * Largest |sampled CPI - full-detail CPI| / full-detail CPI over the
 * cells, in percent (0 for cells simulated in full detail); nullopt
 * when @p ref holds no CPI for the sampled cells.
 */
std::optional<double> cpiErrorPct(const vrsim::ResultTable &table,
                                  const Reference &ref);

/**
 * Hash of each spec's first instructions, architectural effects
 * included: different inputs give different fingerprints.
 */
uint64_t inputFingerprint(const BenchWorkload &w,
                          vrsim::WorkloadCache &cache);

/** @p v with all its digits, as JSON and the result lines print it. */
std::string num(double v);

double median(std::vector<double> v);

/** First and third quartile, as Python's statistics.quantiles(n=4). */
std::pair<double, double> quartiles(std::vector<double> v);

} // namespace vrbench

#endif // VRBENCH_SUITE_HH
