/**
 * @file
 * Synthetic graph inputs for the GAP kernels (paper Table 2): CSR
 * graphs generated as Kronecker/RMAT power-law graphs (Kron, and the
 * LiveJournal/Orkut/Twitter stand-ins with different skew/density) or
 * uniform-random graphs (Urand). See DESIGN.md for the scaling
 * substitution.
 */

#ifndef VRSIM_WORKLOADS_GRAPH_HH
#define VRSIM_WORKLOADS_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"

namespace vrsim
{

/** The five graph inputs of Table 2. */
enum class GraphInput
{
    Kron,   //!< Kronecker power-law (synthetic, Graph500-style)
    Ljn,    //!< LiveJournal stand-in (moderate power-law, sparse)
    Ork,    //!< Orkut stand-in (power-law, dense)
    Tw,     //!< Twitter stand-in (heavy power-law)
    Ur,     //!< uniform random (low-degree variance)
};

std::string graphInputName(GraphInput g);

/** CSR graph. */
struct Graph
{
    uint64_t num_nodes = 0;
    uint64_t num_edges = 0;
    std::vector<uint64_t> offsets;   //!< size num_nodes + 1
    std::vector<uint64_t> edges;     //!< size num_edges

    uint64_t degree(uint64_t v) const
    { return offsets[v + 1] - offsets[v]; }
};

/** Scale knobs for synthetic graph generation. */
struct GraphScale
{
    uint64_t nodes = 1 << 15;
    uint64_t avg_degree = 16;
    uint64_t seed = 42;

    static constexpr uint64_t MAX_NODES = 1ull << 32;
    static constexpr uint64_t MAX_DEGREE = 1ull << 16;

    /**
     * fatal() unless @p input can be generated at this scale: nodes
     * in [1, MAX_NODES], avg_degree at most MAX_DEGREE, and for an
     * RMAT input a power-of-two rmatNodes() of at least 2. The
     * message names the key and the bound.
     */
    void validate(GraphInput input) const;
};

/**
 * Generate one of the Table 2 inputs at the given scale. Kron/Ljn/
 * Ork/Tw are RMAT graphs with decreasing skew; Ur is uniform random.
 */
Graph makeGraph(GraphInput input, const GraphScale &scale);

/** RMAT generator (a/b/c quadrant probabilities). */
Graph makeRmat(uint64_t nodes, uint64_t edges, double a, double b,
               double c, uint64_t seed);

/** Uniform-random multigraph. */
Graph makeUniform(uint64_t nodes, uint64_t edges, uint64_t seed);

} // namespace vrsim

#endif // VRSIM_WORKLOADS_GRAPH_HH
