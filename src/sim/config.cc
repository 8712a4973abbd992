#include "sim/config.hh"

#include <cctype>

#include "runahead/hardware_budget.hh"
#include "runahead/reconv_stack.hh"
#include "sim/logging.hh"

namespace vrsim
{

namespace
{

bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** fatal() with the offending parameter name and value spelled out. */
[[noreturn]] void
reject(const std::string &what, uint64_t value, const std::string &why)
{
    fatal(what + " = " + std::to_string(value) + ": " + why);
}

void
validateCache(const std::string &name, const CacheConfig &c)
{
    if (c.line_bytes == 0 || !isPow2(c.line_bytes))
        reject(name + ".line_bytes", c.line_bytes,
               "cache lines must be a nonzero power of two");
    if (c.assoc == 0)
        reject(name + ".assoc", c.assoc, "caches need at least one way");
    if (c.size_bytes < uint64_t(c.assoc) * c.line_bytes)
        reject(name + ".size_bytes", c.size_bytes,
               "smaller than one set (assoc x line_bytes = " +
                   std::to_string(uint64_t(c.assoc) * c.line_bytes) +
                   ")");
    const uint64_t sets =
        c.size_bytes / (uint64_t(c.assoc) * c.line_bytes);
    if (!isPow2(sets) ||
        sets * uint64_t(c.assoc) * c.line_bytes != c.size_bytes)
        reject(name + ".size_bytes", c.size_bytes,
               "geometry must give a power-of-two set count "
               "(size / (assoc x line_bytes))");
    if (c.mshrs == 0)
        reject(name + ".mshrs", c.mshrs,
               "a cache with no MSHRs can never fill a miss");
    if (c.ports == 0)
        reject(name + ".ports", c.ports,
               "a cache with no ports accepts no accesses");
    if (c.latency == 0)
        reject(name + ".latency", c.latency,
               "zero-cycle caches break the timing model");
}

} // namespace

void
SystemConfig::validate(bool verbose) const
{
    // ---- core window structures ----
    if (core.width == 0)
        reject("core.width", core.width,
               "the core must dispatch at least one µop per cycle");
    if (core.rob_size == 0)
        reject("core.rob_size", core.rob_size,
               "a zero-entry ROB dispatches nothing");
    if (core.issue_queue == 0)
        reject("core.issue_queue", core.issue_queue,
               "a zero-entry issue queue dispatches nothing");
    if (core.load_queue == 0)
        reject("core.load_queue", core.load_queue,
               "a zero-entry load queue admits no loads");
    if (core.store_queue == 0)
        reject("core.store_queue", core.store_queue,
               "a zero-entry store queue admits no stores");
    if (core.frontend_stages == 0)
        reject("core.frontend_stages", core.frontend_stages,
               "the pipeline needs at least one front-end stage");
    if (core.load_ports == 0 || core.store_ports == 0)
        fatal("core.load_ports/store_ports = " +
              std::to_string(core.load_ports) + "/" +
              std::to_string(core.store_ports) +
              ": memory instructions need at least one port each");
    if (core.int_add_units == 0 || core.int_mul_units == 0 ||
        core.int_div_units == 0 || core.fp_add_units == 0 ||
        core.fp_mul_units == 0 || core.fp_div_units == 0)
        fatal("every functional-unit class needs at least one unit "
              "(int add/mul/div, fp add/mul/div)");
    if (core.int_phys_regs == 0 || core.vec_phys_regs == 0)
        fatal("core.int_phys_regs/vec_phys_regs must be nonzero: the "
              "runahead subthread renames into them");

    // ---- memory hierarchy ----
    validateCache("l1i", l1i);
    validateCache("l1d", l1d);
    validateCache("l2", l2);
    validateCache("l3", l3);
    if (dram.latency == 0)
        reject("dram.latency", dram.latency,
               "DRAM cannot be faster than the caches in front of it");
    if (!(dram.bytes_per_cycle > 0.0))
        fatal("dram.bytes_per_cycle = " +
              std::to_string(dram.bytes_per_cycle) +
              ": bandwidth must be positive");
    if (dram.channels == 0)
        reject("dram.channels", dram.channels,
               "at least one DRAM channel is required");

    // ---- prefetchers ----
    if (stride_pf.enabled && stride_pf.streams == 0)
        reject("stride_pf.streams", stride_pf.streams,
               "the enabled stride prefetcher needs table entries "
               "(or set stride_pf.enabled = false)");
    if (technique == Technique::Imp && imp.table_entries == 0)
        reject("imp.table_entries", imp.table_entries,
               "IMP needs table entries under Technique::Imp");

    // ---- runahead geometry ----
    if (runahead.lanes_per_vector == 0)
        reject("runahead.lanes_per_vector", runahead.lanes_per_vector,
               "vector registers need at least one lane");
    if (runahead.vector_regs == 0)
        reject("runahead.vector_regs", runahead.vector_regs,
               "runahead needs at least one vector register "
               "(--lanes below lanes_per_vector truncates to zero)");
    if (runahead.max_lanes() > MAX_LANES)
        reject("runahead.vector_regs x lanes_per_vector",
               runahead.max_lanes(),
               "exceeds the " + std::to_string(MAX_LANES) +
                   "-lane structural limit (see reconv_stack.hh)");
    if (runahead.stride_entries == 0)
        reject("runahead.stride_entries", runahead.stride_entries,
               "the stride detector needs entries");
    if (runahead.discovery_max_insts == 0)
        reject("runahead.discovery_max_insts",
               runahead.discovery_max_insts,
               "a zero discovery cap aborts every Discovery walk");
    if (runahead.subthread_timeout == 0)
        reject("runahead.subthread_timeout", runahead.subthread_timeout,
               "lanes with a zero instruction budget cannot run");
    if (runahead.reconv_stack_entries == 0)
        reject("runahead.reconv_stack_entries",
               runahead.reconv_stack_entries,
               "DVR reconvergence needs stack entries");
    if (runahead.frontend_buffer_uops == 0)
        reject("runahead.frontend_buffer_uops",
               runahead.frontend_buffer_uops,
               "the runahead front-end buffer needs capacity");
    if (runahead.pre_chain_cap == 0)
        reject("runahead.pre_chain_cap", runahead.pre_chain_cap,
               "PRE needs a nonzero chain-walk cap");

    // Table-1 hardware budget (§4.4): reject geometries whose storage
    // cost exceeds the configured ceiling.
    if (runahead.max_budget_bytes != 0) {
        const uint64_t bytes = computeHardwareBudget(runahead).total();
        if (bytes > runahead.max_budget_bytes)
            fatal("runahead hardware budget " + std::to_string(bytes) +
                  " bytes exceeds runahead.max_budget_bytes = " +
                  std::to_string(runahead.max_budget_bytes) +
                  " (paper Table 1 budget is 1139 bytes)");
    }

    // ---- differential oracle ----
    if (collect_digest && digest_interval == 0)
        reject("digest_interval", digest_interval,
               "digest collection needs a nonzero sampling interval");

    // ---- suspicious-but-legal values ----
    if (!verbose)
        return;
    if (core.rob_size < core.width)
        warn("core.rob_size (" + std::to_string(core.rob_size) +
             ") below dispatch width (" + std::to_string(core.width) +
             "): the window refills slower than it drains");
    if (l1d.mshrs > l1d.size_bytes / l1d.line_bytes)
        warn("l1d.mshrs (" + std::to_string(l1d.mshrs) +
             ") exceeds the number of L1D lines; extra MSHRs cannot "
             "be used");
    if (watchdog_cycles != 0 && watchdog_cycles < 10'000)
        warn("watchdog_cycles = " + std::to_string(watchdog_cycles) +
             " is tight; legitimate runs may be reported as hangs");
    if (runahead.lanes_per_vector != 8)
        warn("runahead.lanes_per_vector = " +
             std::to_string(runahead.lanes_per_vector) +
             " differs from the paper's 8-lane vector registers");
}

std::string
techniqueName(Technique t)
{
    switch (t) {
      case Technique::OoO: return "OoO";
      case Technique::Pre: return "PRE";
      case Technique::Imp: return "IMP";
      case Technique::Vr: return "VR";
      case Technique::DvrOffload: return "DVR-Offload";
      case Technique::DvrDiscovery: return "DVR-Discovery";
      case Technique::Dvr: return "DVR";
      case Technique::Oracle: return "Oracle";
    }
    panic("unknown technique");
}

Technique
techniqueFromName(const std::string &name)
{
    static const Technique all[] = {
        Technique::OoO,         Technique::Pre,
        Technique::Imp,         Technique::Vr,
        Technique::DvrOffload,  Technique::DvrDiscovery,
        Technique::Dvr,         Technique::Oracle,
    };
    auto lower = [](std::string s) {
        for (char &c : s)
            c = char(std::tolower((unsigned char)c));
        return s;
    };
    std::string valid;
    for (Technique t : all) {
        if (lower(techniqueName(t)) == lower(name))
            return t;
        if (!valid.empty())
            valid += ", ";
        valid += techniqueName(t);
    }
    fatal("unknown technique '" + name + "' (valid: " + valid + ")");
}

SystemConfig
SystemConfig::paper()
{
    return SystemConfig{};
}

SystemConfig
SystemConfig::benchScale()
{
    SystemConfig cfg;
    // Inputs in the harness are ~100-1000x smaller than the paper's
    // graphs; shrink L2/L3 so the LLC is still defeated while L1
    // behaviour stays realistic.
    cfg.l2.size_bytes = 64 * 1024;
    cfg.l3.size_bytes = 512 * 1024;
    cfg.l3.latency = 30;
    cfg.dram.latency = 200;
    return cfg;
}

void
printConfig(std::ostream &os, const SystemConfig &cfg)
{
    os << "core            " << cfg.core.width << "-wide OoO, ROB "
       << cfg.core.rob_size << ", IQ " << cfg.core.issue_queue << ", LQ "
       << cfg.core.load_queue << ", SQ " << cfg.core.store_queue
       << ", " << cfg.core.frontend_stages << " front-end stages\n";
    os << "L1 D-cache      " << cfg.l1d.size_bytes / 1024 << " KB, assoc "
       << cfg.l1d.assoc << ", " << cfg.l1d.latency << "-cycle, "
       << cfg.l1d.mshrs << " MSHRs\n";
    os << "L2 cache        " << cfg.l2.size_bytes / 1024 << " KB, assoc "
       << cfg.l2.assoc << ", " << cfg.l2.latency << "-cycle\n";
    os << "L3 cache        " << cfg.l3.size_bytes / 1024 << " KB, assoc "
       << cfg.l3.assoc << ", " << cfg.l3.latency << "-cycle\n";
    os << "memory          " << cfg.dram.latency << "-cycle min latency, "
       << cfg.dram.bytes_per_cycle << " B/cycle\n";
    os << "stride pf       "
       << (cfg.stride_pf.enabled ? "enabled" : "disabled") << ", "
       << cfg.stride_pf.streams << " streams, degree "
       << cfg.stride_pf.degree << "\n";
    os << "technique       " << techniqueName(cfg.technique) << "\n";
}

} // namespace vrsim
