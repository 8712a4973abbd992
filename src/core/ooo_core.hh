/**
 * @file
 * Instruction-window-centric timing model of a superscalar
 * out-of-order core (the modelling style of Sniper 6.0, which the
 * paper uses). Models: fetch/dispatch/commit width, ROB, issue queue,
 * load/store queues, functional-unit ports, branch mispredict
 * redirects, the cache hierarchy with MSHRs and DRAM bandwidth, and
 * full-ROB-stall detection that triggers the runahead engines.
 */

#ifndef VRSIM_CORE_OOO_CORE_HH
#define VRSIM_CORE_OOO_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/engine.hh"
#include "frontend/branch_predictor.hh"
#include "frontend/btb.hh"
#include "mem/cache.hh"
#include "isa/interp.hh"
#include "mem/hierarchy.hh"
#include "obs/stat_table.hh"
#include "sim/config.hh"
#include "sim/digest.hh"

namespace vrsim
{

/**
 * Timing results of one core run (descriptions in `fields`). The
 * stall_* counters attribute dispatch stalls: the cycles each
 * constraint pushed the dispatch point beyond all previous ones.
 */
struct CoreStats : StatRecord<CoreStats>
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    uint64_t rob_stall_cycles = 0;
    uint64_t full_rob_stall_events = 0;
    uint64_t runahead_commit_stall = 0;
    uint64_t btb_misses = 0;
    uint64_t icache_misses = 0;
    uint64_t stall_fetch = 0;
    uint64_t stall_iq = 0;
    uint64_t stall_lq = 0;
    uint64_t stall_sq = 0;

    static constexpr std::tuple fields{
        stat("instructions", "core.instructions",
             "retired instructions in the ROI", &CoreStats::instructions),
        stat("cycles", "core.cycles", "core cycles in the ROI",
             &CoreStats::cycles),
        stat("loads", "core.loads", "retired loads", &CoreStats::loads),
        stat("stores", "core.stores", "retired stores", &CoreStats::stores),
        stat("branches", "core.branches", "retired conditional branches",
             &CoreStats::branches),
        stat("mispredicts", "core.mispredicts", "mispredicted branches",
             &CoreStats::mispredicts),
        stat("rob_stall_cycles", "core.stall_rob",
             "dispatch-stall cycles from ROB occupancy",
             &CoreStats::rob_stall_cycles),
        stat("full_rob_stall_events", "core.runahead_triggers",
             "full-window stall episodes handed to the engine",
             &CoreStats::full_rob_stall_events),
        stat("runahead_commit_stall", "core.runahead_commit_stall",
             "commit-stall cycles from VR delayed termination",
             &CoreStats::runahead_commit_stall),
        stat("btb_misses", nullptr,
             "taken branches without a BTB entry (decode redirect)",
             &CoreStats::btb_misses),
        stat("icache_misses", nullptr, "L1I line misses",
             &CoreStats::icache_misses),
        stat("stall_fetch", "core.stall_fetch",
             "dispatch-stall cycles from mispredict redirects",
             &CoreStats::stall_fetch),
        stat("stall_iq", "core.stall_iq",
             "dispatch-stall cycles from issue-queue occupancy",
             &CoreStats::stall_iq),
        stat("stall_lq", "core.stall_lq",
             "dispatch-stall cycles from load-queue occupancy",
             &CoreStats::stall_lq),
        stat("stall_sq", "core.stall_sq",
             "dispatch-stall cycles from store-queue occupancy",
             &CoreStats::stall_sq),
    };

    double ipc() const
    { return cycles ? double(instructions) / double(cycles) : 0.0; }

    /**
     * CPI-stack decomposition (cycles per instruction attributed to
     * each dispatch-stall source; "base" is the remainder).
     */
    struct CpiStack
    {
        double base = 0;
        double frontend = 0;   //!< mispredict redirects
        double issue_queue = 0;
        double load_queue = 0;
        double store_queue = 0;
        double rob = 0;
        double runahead = 0;   //!< VR delayed-termination commit stall

        double
        total() const
        {
            return base + frontend + issue_queue + load_queue +
                   store_queue + rob + runahead;
        }
    };

    CpiStack
    cpiStack() const
    {
        CpiStack s;
        if (!instructions)
            return s;
        double n = double(instructions);
        s.frontend = double(stall_fetch) / n;
        s.issue_queue = double(stall_iq) / n;
        s.load_queue = double(stall_lq) / n;
        s.store_queue = double(stall_sq) / n;
        s.rob = double(rob_stall_cycles) / n;
        s.runahead = double(runahead_commit_stall) / n;
        double attributed = s.frontend + s.issue_queue + s.load_queue +
                            s.store_queue + s.rob + s.runahead;
        double cpi = double(cycles) / n;
        s.base = cpi > attributed ? cpi - attributed : 0.0;
        return s;
    }

    /**
     * Register the reported core statistics under "core." and "cpi."
     * paths in @p reg (docs/observability.md lists every path).
     * core.ipc is a Formula over core.instructions / core.cycles, so
     * it tracks the registry values rather than a snapshot.
     */
    void registerIn(StatsRegistry &reg) const;
};
static_assert(statTableBytes<CoreStats>() == sizeof(CoreStats));

/** The out-of-order core. */
class OooCore
{
  public:
    /**
     * @param cfg    system configuration
     * @param prog   program to execute
     * @param image  functional memory (workload data already loaded)
     * @param hier   timing memory hierarchy
     * @param engine optional runahead engine (nullptr for plain OoO)
     */
    OooCore(const SystemConfig &cfg, const Program &prog,
            MemoryImage &image, MemoryHierarchy &hier,
            RunaheadEngine *engine = nullptr);

    /**
     * Run until the program halts or @p max_insts dynamic
     * instructions execute (0 = only the config's max_insts cap).
     *
     * @param init initial architectural state (workload registers)
     * @param max_insts dynamic-instruction budget incl. warmup
     * @param warmup_insts instructions whose statistics are excluded
     *        from the returned CoreStats (cache/predictor state and
     *        pipeline timing carry over); @p at_warmup, when set, is
     *        invoked at the boundary so callers can snapshot external
     *        statistics (e.g. the memory hierarchy's)
     */
    CoreStats run(const CpuState &init, uint64_t max_insts = 0,
                  uint64_t warmup_insts = 0,
                  const std::function<void()> &at_warmup = {});

    /** Run from a zeroed architectural state. */
    CoreStats run(uint64_t max_insts = 0)
    { return run(CpuState{}, max_insts); }

    /**
     * One detailed window of a segmented (sampled) run: like run(),
     * but advances @p state in place and starts the pipeline clock at
     * @p clock instead of 0 — cache LRU recency, calendar reservations
     * and the monotone retire horizon all continue from the previous
     * window. On return @p clock holds the window's final cycle; the
     * returned CoreStats covers this window only (cycles relative to
     * entry). The pipeline itself restarts empty each window, which is
     * why SamplingPlan runs detailed-warm instructions before each
     * measured window (docs/sampling.md).
     */
    CoreStats runFrom(CpuState &state, uint64_t max_insts,
                      uint64_t warmup_insts, Cycle &clock,
                      const std::function<void()> &at_warmup = {});

    /**
     * Timing-free functional fast-forward of up to @p max_insts
     * instructions. With @p warm set, each instruction also warms the
     * timing-relevant-but-timing-free state: L1I/L1D/L2/L3 tags and
     * LRU recency (via MemoryHierarchy::warmAccess), the branch
     * predictor, and the BTB, with @p clock advancing one cycle per
     * instruction so recency stays ordered against detailed windows.
     * With @p warm clear this is the native-speed interpreter loop and
     * @p clock is untouched. Either way an attached digest receives
     * every instruction exactly as the detailed commit path would.
     *
     * @return instructions executed (short only on program halt).
     */
    uint64_t fastForward(CpuState &state, uint64_t max_insts,
                         Cycle &clock, bool warm);

    /**
     * Copyable snapshot of the core-side warm state (branch predictor,
     * BTB, L1I tags); the memory-side counterpart is
     * MemoryHierarchy::warmSnapshot(). Only meaningful at a quiesced
     * window boundary (no in-flight calendar state is captured).
     */
    struct WarmState
    {
        BranchPredictor bp;
        Btb btb;
        CacheArray l1i;
    };

    WarmState warmSnapshot() const { return WarmState{bp_, btb_, l1i_}; }

    void
    warmRestore(const WarmState &s)
    {
        bp_ = s.bp;
        btb_ = s.btb;
        l1i_ = s.l1i;
    }

    /**
     * Attach a differential-oracle digest (sim/digest.hh): the commit
     * path feeds it every retired instruction's architectural effects,
     * in program order, outside any speculation scope. nullptr
     * detaches. Not owned.
     */
    void setDigest(StateDigest *digest) { digest_ = digest; }

    /**
     * Attach a cycle-trace sink (obs/trace.hh): every committed
     * instruction emits one TraceCat::Pipeline event with its
     * dispatch/ready/issue/complete/commit timestamps and the ROB
     * occupancy at dispatch. nullptr detaches; when detached the only
     * cost is a null check per instruction.
     */
    void setTraceSink(TraceSink *sink) { tsink_ = sink; }

  private:
    /**
     * Per-FU-class issue-port calendar with cycle-granular occupancy.
     * Out-of-order issue schedules non-chronologically (a later
     * instruction may issue at an earlier cycle than a previously
     * scheduled one), so the calendar tracks per-cycle usage counts
     * rather than per-unit next-free times. Built on the same
     * cycle-skipping IntervalResource as the memory-side resources
     * (sim/event_calendar.hh): a non-pipelined unit's backlog is
     * jumped, not polled, and history behind the dispatch horizon is
     * retired by the core's periodic retireBefore() sweep.
     */
    struct PortBank
    {
        uint32_t units = 1;
        uint32_t latency = 1;
        bool pipelined = true;
        IntervalResource res{1, 0};

        PortBank() = default;
        PortBank(uint32_t u, uint32_t lat, bool pipe)
            : units(u), latency(lat), pipelined(pipe), res(u, 0)
        {}

        /** Issue at the earliest cycle >= ready with a free unit. */
        Cycle
        issue(Cycle ready)
        {
            return res.allocate(ready, pipelined ? 1 : latency);
        }

        /** Drop calendar history wholly before @p cycle. */
        void retireBefore(Cycle cycle) { res.retireBefore(cycle); }
    };

    /** Bank for an FU class. Inline: once per dispatched instruction. */
    PortBank &
    portsFor(FuClass fu)
    {
        switch (fu) {
          case FuClass::IntAdd: return int_add_;
          case FuClass::IntMul: return int_mul_;
          case FuClass::IntDiv: return int_div_;
          case FuClass::FpAdd: return fp_add_;
          case FuClass::FpMul: return fp_mul_;
          case FuClass::FpDiv: return fp_div_;
          case FuClass::Load: return load_ports_;
          case FuClass::Store: return store_ports_;
          case FuClass::Branch: return int_add_;
          case FuClass::None: return int_add_;
        }
        panic("bad FU class");
    }

    SystemConfig cfg_;
    const Program &prog_;
    MemoryImage &image_;
    MemoryHierarchy &hier_;
    RunaheadEngine *engine_;
    BranchPredictor bp_;
    Btb btb_;
    CacheArray l1i_;
    StateDigest *digest_ = nullptr;
    TraceSink *tsink_ = nullptr;

    PortBank int_add_, int_mul_, int_div_;
    PortBank fp_add_, fp_mul_, fp_div_;
    PortBank load_ports_, store_ports_;
};

} // namespace vrsim

#endif // VRSIM_CORE_OOO_CORE_HH
