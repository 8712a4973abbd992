/**
 * @file
 * Workload container and registry: each benchmark is a µop program,
 * a pre-initialized memory image and an initial register state.
 */

#ifndef VRSIM_WORKLOADS_WORKLOAD_HH
#define VRSIM_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/inst.hh"
#include "isa/interp.hh"
#include "isa/memory_image.hh"
#include "workloads/graph.hh"

namespace vrsim
{

/** A runnable benchmark instance. */
struct Workload
{
    std::string name;
    Program prog;
    MemoryImage image;
    CpuState init;
    uint64_t suggested_insts = 400'000;   //!< default ROI length
};

/** Simple bump allocator laying arrays into the memory image. */
class Layout
{
  public:
    explicit Layout(uint64_t base = 0x100000) : cursor_(base) {}

    /** Reserve @p bytes, 64-byte aligned; returns the base address. */
    uint64_t
    alloc(uint64_t bytes)
    {
        uint64_t base = cursor_;
        cursor_ = (cursor_ + bytes + 63) & ~uint64_t(63);
        return base;
    }

    /** Store a u64 array and return its base. */
    uint64_t
    put64(MemoryImage &img, const std::vector<uint64_t> &data)
    {
        uint64_t base = alloc(data.size() * 8);
        for (size_t i = 0; i < data.size(); i++)
            img.write64(base + i * 8, data[i]);
        return base;
    }

    /** Store an f64 array and return its base. */
    uint64_t
    putF64(MemoryImage &img, const std::vector<double> &data)
    {
        uint64_t base = alloc(data.size() * 8);
        for (size_t i = 0; i < data.size(); i++)
            img.writeF64(base + i * 8, data[i]);
        return base;
    }

    uint64_t cursor() const { return cursor_; }

  private:
    uint64_t cursor_;
};

/** Scale knobs for the hpc-db benchmarks. */
struct HpcDbScale
{
    uint64_t elements = 1 << 17;   //!< main table / key count
    uint64_t seed = 7;

    static constexpr uint64_t MIN_ELEMENTS = 2;
    static constexpr uint64_t MAX_ELEMENTS = 1ull << 32;

    /**
     * fatal() unless the hpc-db workload @p spec builds at this scale:
     * elements in [MIN_ELEMENTS, MAX_ELEMENTS] (hj2/hj8 draw keys
     * below elements, nas-is buckets below elements/2), and for
     * graph500, whose RMAT graph has max(4096, elements) nodes, a
     * power of two above 4096. The message names the key and the
     * bound.
     */
    void validate(const std::string &spec) const;
};

// --- GAP kernels (graph analytics), over a synthetic graph
// (makeGraph) or one loaded from a file (graph_io.hh) ---
Workload makeBfsFromGraph(const Graph &g, const std::string &name,
                          uint64_t seed);
Workload makePrFromGraph(const Graph &g, const std::string &name,
                         uint64_t seed);
Workload makeCcFromGraph(const Graph &g, const std::string &name,
                         uint64_t seed);
Workload makeSsspFromGraph(const Graph &g, const std::string &name,
                           uint64_t seed);
Workload makeBcFromGraph(const Graph &g, const std::string &name,
                         uint64_t seed);

// --- hpc-db benchmarks ---
Workload makeCamel(const HpcDbScale &scale);
Workload makeCamelSwPf(const HpcDbScale &scale); //!< + SW prefetching
Workload makeGraph500(const HpcDbScale &scale);
Workload makeHashJoin(unsigned hashes, const HpcDbScale &scale); //!< HJ2/HJ8
Workload makeKangaroo(const HpcDbScale &scale);
Workload makeNasCg(const HpcDbScale &scale);
Workload makeNasIs(const HpcDbScale &scale);
Workload makeRandomAccess(const HpcDbScale &scale);

/** The 5 GAP kernel names. */
const std::vector<std::string> &gapKernelNames();

/** The 8 hpc-db benchmark names. */
const std::vector<std::string> &hpcDbNames();

/**
 * Build a workload from a spec string: "bfs/KR", "pr/UR", "camel",
 * "hj8", ... GAP kernels take a graph-input suffix.
 */
Workload makeWorkload(const std::string &spec, const GraphScale &gscale,
                      const HpcDbScale &hscale);

} // namespace vrsim

#endif // VRSIM_WORKLOADS_WORKLOAD_HH
