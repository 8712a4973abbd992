/**
 * @file
 * System configuration: every structure of Table 1 in the paper, plus
 * the knobs for the runahead engines and the benchmark scaling used by
 * the reproduction harness.
 */

#ifndef VRSIM_SIM_CONFIG_HH
#define VRSIM_SIM_CONFIG_HH

#include <cstdint>
#include <ostream>
#include <string>

namespace vrsim
{

/** Cache replacement policies. */
enum class ReplPolicy : uint8_t
{
    Lru,     //!< least recently used (default)
    Fifo,    //!< insertion order
    Random,  //!< pseudo-random victim
};

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    uint32_t size_bytes = 32 * 1024;
    uint32_t assoc = 8;
    uint32_t line_bytes = 64;
    uint32_t latency = 4;       //!< access latency in cycles
    uint32_t mshrs = 24;        //!< outstanding-miss capacity
    uint32_t ports = 2;         //!< accesses accepted per cycle
    ReplPolicy repl = ReplPolicy::Lru;
};

/** DRAM timing/bandwidth model parameters. */
struct DramConfig
{
    uint32_t latency = 200;       //!< min load-to-use latency, cycles (50ns@4GHz)
    double bytes_per_cycle = 12.8; //!< 51.2 GB/s at 4 GHz (total)
    uint32_t channels = 1;        //!< independent channels sharing the
                                  //!< configured total bandwidth
};

/** Out-of-order core parameters (Table 1). */
struct CoreConfig
{
    uint32_t width = 5;           //!< fetch/dispatch/rename/commit width
    uint32_t rob_size = 350;
    uint32_t issue_queue = 128;
    uint32_t load_queue = 128;
    uint32_t store_queue = 72;
    uint32_t frontend_stages = 15; //!< pipeline depth => mispredict penalty

    // Functional units: count and latency per class.
    uint32_t int_add_units = 4, int_add_lat = 1;
    uint32_t int_mul_units = 1, int_mul_lat = 3;
    uint32_t int_div_units = 1, int_div_lat = 18;
    uint32_t fp_add_units = 1,  fp_add_lat = 3;
    uint32_t fp_mul_units = 1,  fp_mul_lat = 5;
    uint32_t fp_div_units = 1,  fp_div_lat = 6;
    uint32_t load_ports = 2;
    uint32_t store_ports = 1;

    // Physical register files shared with the runahead subthread.
    uint32_t int_phys_regs = 256;
    uint32_t vec_phys_regs = 128;
};

/** Stride-prefetcher (L1D, always on) parameters. */
struct StridePrefetcherConfig
{
    bool enabled = true;
    uint32_t streams = 16;
    uint32_t degree = 2;       //!< lines prefetched ahead per trigger
    uint32_t train_threshold = 2;
};

/** Indirect Memory Prefetcher (IMP baseline) parameters. */
struct ImpConfig
{
    uint32_t table_entries = 32;
    uint32_t prefetch_distance = 16;
    uint32_t train_threshold = 2;
};

/** Shared runahead knobs (PRE / VR / DVR). */
struct RunaheadConfig
{
    // Stride detector (RPT): 32 entries per the paper's budget analysis.
    uint32_t stride_entries = 32;
    uint32_t stride_confidence = 2; //!< saturating-counter threshold

    // Vectorization geometry: 16 vector registers x 8 lanes each.
    uint32_t vector_regs = 16;
    uint32_t lanes_per_vector = 8;
    uint32_t max_lanes() const { return vector_regs * lanes_per_vector; }

    uint32_t discovery_max_insts = 200;  //!< discovery-mode walk cap
    uint32_t subthread_timeout = 200;    //!< per-invocation inst timeout
    uint32_t nested_trigger_lanes = 64;  //!< NDM when bound < this (paper 4.3.1)
    uint32_t reconv_stack_entries = 8;
    uint32_t frontend_buffer_uops = 8;

    // PRE specifics.
    uint32_t pre_chain_cap = 1024; //!< max µops walked per interval

    /**
     * Guardrail: ceiling on the computed §4.4 storage budget of the
     * DVR structures. The paper's configuration costs 1139 bytes;
     * the default leaves headroom for the 256-lane §6.1 design point
     * while rejecting runaway geometries. 0 disables the check.
     */
    uint64_t max_budget_bytes = 8192;
};

/** Which latency-tolerance technique drives a simulation run. */
enum class Technique
{
    OoO,        //!< plain out-of-order baseline
    Pre,        //!< Precise Runahead Execution
    Imp,        //!< Indirect Memory Prefetcher
    Vr,         //!< Vector Runahead (ISCA 2021)
    DvrOffload, //!< VR offloaded to the subthread (Fig. 8 step 2)
    DvrDiscovery, //!< + Discovery Mode (Fig. 8 step 3)
    Dvr,        //!< full DVR incl. Nested Vector Runahead (Fig. 8 step 4)
    Oracle,     //!< perfect prefetching (all loads L1 hits)
};

/** Printable name of a technique, as used in the paper's figures. */
std::string techniqueName(Technique t);

/**
 * Inverse of techniqueName: parse a technique from its printable name
 * in any case ("DVR-Offload", "dvr-offload"). fatal() on unknown
 * names, listing the valid ones. Shared by the CLI and repro-bundle
 * replay.
 */
Technique techniqueFromName(const std::string &name);

/** Complete system configuration for one simulation. */
struct SystemConfig
{
    CoreConfig core;
    CacheConfig l1i{32 * 1024, 4, 64, 2, 8};
    CacheConfig l1d{32 * 1024, 8, 64, 4, 24};
    CacheConfig l2{256 * 1024, 8, 64, 8, 32};
    CacheConfig l3{8 * 1024 * 1024, 16, 64, 30, 64};
    DramConfig dram;
    StridePrefetcherConfig stride_pf;
    ImpConfig imp;
    RunaheadConfig runahead;
    Technique technique = Technique::OoO;

    uint64_t max_insts = 0;   //!< dynamic-instruction budget (0 = run to halt)

    /**
     * Forward-progress watchdog bound in cycles (0 disables). An
     * unbounded run (`max_insts == 0` everywhere) that has not halted
     * within this many simulated cycles, or a single instruction whose
     * dispatch-to-commit gap exceeds it, raises HangError with a
     * progress snapshot instead of spinning forever. The default is
     * far beyond any harness run (~3 orders of magnitude above the
     * benchmark ROI) so it only fires on genuinely wedged runs.
     */
    uint64_t watchdog_cycles = 100'000'000;

    /**
     * Collect a StateDigest over the committed instruction stream
     * (see sim/digest.hh). Off by default: hashing every retirement
     * costs a few percent of simulation speed, so only differential
     * runs (`--check-digests`) and replay pay for it.
     */
    bool collect_digest = false;

    /**
     * Retired instructions per interval digest sample when
     * collect_digest is set. Smaller intervals localize a divergence
     * more tightly at the cost of a longer digest record.
     */
    uint64_t digest_interval = 8192;

    /**
     * Cheap always-on invariant checks (MSHR busy-integral
     * monotonicity, non-negative stats after warmup subtraction,
     * reconvergence-stack balance). Tests force-enable this; huge
     * sweeps may disable it to shave the last few percent.
     */
    bool invariant_checks = true;

    /**
     * Reject degenerate or inconsistent parameters with fatal(), and
     * warn() about suspicious-but-legal ones when @p verbose. Invoked
     * at MemoryHierarchy/OooCore/engine construction so a bad sweep
     * point fails with an actionable diagnostic instead of wedging or
     * silently mis-modelling.
     */
    void validate(bool verbose = true) const;

    /**
     * The benchmark harness runs scaled-down inputs; this shrinks the
     * LLC proportionally so the paper's "working set defeats the LLC"
     * property is preserved (see DESIGN.md substitution table).
     */
    static SystemConfig benchScale();

    /** Paper Table 1 configuration, unmodified. */
    static SystemConfig paper();
};

/** Print the configuration as a Table 1-style block. */
void printConfig(std::ostream &os, const SystemConfig &cfg);

} // namespace vrsim

#endif // VRSIM_SIM_CONFIG_HH
