#include "workloads/graph.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vrsim
{

std::string
graphInputName(GraphInput g)
{
    switch (g) {
      case GraphInput::Kron: return "KR";
      case GraphInput::Ljn: return "LJN";
      case GraphInput::Ork: return "ORK";
      case GraphInput::Tw: return "TW";
      case GraphInput::Ur: return "UR";
    }
    panic("unknown graph input");
}

namespace
{

Graph
fromEdgeList(uint64_t nodes,
             std::vector<std::pair<uint64_t, uint64_t>> &el)
{
    Graph g;
    g.num_nodes = nodes;
    g.num_edges = el.size();
    g.offsets.assign(nodes + 1, 0);
    for (auto &e : el)
        ++g.offsets[e.first + 1];
    for (uint64_t v = 0; v < nodes; v++)
        g.offsets[v + 1] += g.offsets[v];
    g.edges.resize(el.size());
    std::vector<uint64_t> cursor(g.offsets.begin(),
                                 g.offsets.end() - 1);
    for (auto &e : el)
        g.edges[cursor[e.first]++] = e.second;
    return g;
}

} // namespace

Graph
makeRmat(uint64_t nodes, uint64_t edges, double a, double b, double c,
         uint64_t seed)
{
    panicIfNot(nodes >= 2 && (nodes & (nodes - 1)) == 0,
               "RMAT node count must be a power of two");
    unsigned levels = 0;
    while ((1ull << levels) < nodes)
        ++levels;

    Rng rng(seed);
    std::vector<std::pair<uint64_t, uint64_t>> el;
    el.reserve(edges);
    for (uint64_t i = 0; i < edges; i++) {
        uint64_t src = 0, dst = 0;
        for (unsigned l = 0; l < levels; l++) {
            double r = rng.uniform();
            src <<= 1;
            dst <<= 1;
            if (r < a) {
                // top-left: nothing
            } else if (r < a + b) {
                dst |= 1;
            } else if (r < a + b + c) {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        el.emplace_back(src, dst);
    }
    return fromEdgeList(nodes, el);
}

Graph
makeUniform(uint64_t nodes, uint64_t edges, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<uint64_t, uint64_t>> el;
    el.reserve(edges);
    for (uint64_t i = 0; i < edges; i++)
        el.emplace_back(rng.below(nodes), rng.below(nodes));
    return fromEdgeList(nodes, el);
}

namespace
{

/** The node count @p input's RMAT generator runs over at @p nodes: KR
 *  and LJN use nodes, ORK nodes/4 and TW nodes/2 (2 when that is 0).
 *  0 for UR, which is not an RMAT graph. */
uint64_t
rmatNodes(GraphInput input, uint64_t nodes)
{
    switch (input) {
      case GraphInput::Kron:
      case GraphInput::Ljn: return nodes;
      case GraphInput::Ork: return nodes / 4 ? nodes / 4 : 2;
      case GraphInput::Tw: return nodes / 2 ? nodes / 2 : 2;
      case GraphInput::Ur: return 0;
    }
    panic("unknown graph input");
}

} // namespace

void
GraphScale::validate(GraphInput input) const
{
    if (nodes < 1 || nodes > MAX_NODES)
        fatal("gscale.nodes (--nodes) must be in [1, " +
              std::to_string(MAX_NODES) + "], got " +
              std::to_string(nodes));
    if (avg_degree > MAX_DEGREE)
        fatal("gscale.avg_degree (--degree) must be in [0, " +
              std::to_string(MAX_DEGREE) + "], got " +
              std::to_string(avg_degree));
    if (input == GraphInput::Ur)
        return;
    const uint64_t r = rmatNodes(input, nodes);
    if (r < 2 || (r & (r - 1)) != 0)
        fatal("gscale.nodes (--nodes) " + std::to_string(nodes) +
              " does not fit the " + graphInputName(input) +
              " input: its RMAT graph needs a power-of-two node count "
              "of at least 2 (KR and LJN use nodes, ORK nodes/4, TW "
              "nodes/2), got " + std::to_string(r));
}

Graph
makeGraph(GraphInput input, const GraphScale &scale)
{
    const uint64_t n = rmatNodes(input, scale.nodes);
    const uint64_t m = scale.nodes * scale.avg_degree;
    switch (input) {
      case GraphInput::Kron:
        // Graph500 parameters: heavily skewed power law.
        return makeRmat(n, m, 0.57, 0.19, 0.19, scale.seed);
      case GraphInput::Ljn:
        // Milder skew, sparser (LiveJournal: 4.8M nodes, 69M edges).
        return makeRmat(n, m / 2 ? m / 2 : 1, 0.45, 0.22, 0.22,
                        scale.seed + 1);
      case GraphInput::Ork:
        // Dense community graph (Orkut: 3.1M nodes, 1.9B edges).
        return makeRmat(n, m, 0.45, 0.22, 0.22, scale.seed + 2);
      case GraphInput::Tw:
        // Twitter: extreme skew, dense.
        return makeRmat(n, m, 0.62, 0.18, 0.18, scale.seed + 3);
      case GraphInput::Ur:
        return makeUniform(scale.nodes, m, scale.seed + 4);
    }
    panic("unknown graph input");
}

} // namespace vrsim
