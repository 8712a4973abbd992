/**
 * @file
 * The five GAP kernels (Beamer et al.) lowered to the vrsim µop ISA:
 * bfs, pr, cc, sssp, bc. Each preserves the memory-access structure
 * the paper's techniques key on: striding worklist/offset loads,
 * striding edge loads in data-dependent inner loops, indirect loads of
 * per-vertex state, and data-dependent branches.
 */

#include "workloads/workload.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vrsim
{

namespace
{

/** Addresses of a CSR graph laid into a memory image. */
struct GraphImage
{
    uint64_t offsets = 0;
    uint64_t edges = 0;
    uint64_t n = 0;
    uint64_t m = 0;
};

GraphImage
loadGraph(MemoryImage &img, Layout &lay, const Graph &g)
{
    GraphImage gi;
    gi.n = g.num_nodes;
    gi.m = g.num_edges;
    gi.offsets = lay.put64(img, g.offsets);
    gi.edges = lay.put64(img, g.edges);
    return gi;
}

/**
 * Pick @p count root vertices with non-trivial out-degree (power-law
 * graphs are full of isolated vertices; a zero-degree root would end
 * the traversal immediately).
 */
std::vector<uint64_t>
pickRoots(const Graph &g, uint64_t seed, uint64_t count)
{
    Rng rng(seed);
    std::vector<uint64_t> roots;
    uint64_t tries = 0;
    while (roots.size() < count && tries < 100 * count) {
        uint64_t v = rng.below(g.num_nodes);
        ++tries;
        if (g.degree(v) >= 1)
            roots.push_back(v);
    }
    // Fallback: take the highest-degree vertices.
    for (uint64_t v = 0; roots.size() < count && v < g.num_nodes; v++)
        if (g.degree(v) >= 1)
            roots.push_back(v);
    if (roots.empty())
        roots.push_back(0);
    return roots;
}

// Register conventions shared by the GAP kernels.
constexpr uint8_t R_WL = 1;       //!< worklist base
constexpr uint8_t R_HEAD = 2;
constexpr uint8_t R_TAIL = 3;
constexpr uint8_t R_OFF = 4;      //!< offsets base
constexpr uint8_t R_EDG = 5;      //!< edges base
constexpr uint8_t R_AUX = 6;      //!< visited / comp / dist base
constexpr uint8_t R_V = 7;        //!< current vertex
constexpr uint8_t R_J = 8;        //!< edge cursor
constexpr uint8_t R_END = 9;      //!< row end
constexpr uint8_t R_E = 10;       //!< edge target
constexpr uint8_t R_T1 = 11;
constexpr uint8_t R_T2 = 12;
constexpr uint8_t R_CND = 13;
constexpr uint8_t R_N = 14;       //!< node count / bound
constexpr uint8_t R_AUX2 = 15;    //!< second per-vertex array
constexpr uint8_t R_AUX3 = 16;    //!< third per-vertex array
constexpr uint8_t R_SUM = 17;
constexpr uint8_t R_ONE = 18;

} // namespace

Workload
makeBfsFromGraph(const Graph &g, const std::string &name, uint64_t seed)
{
    Workload w;
    w.name = name;
    Layout lay;
    GraphImage gi = loadGraph(w.image, lay, g);

    // Worklist sized for every vertex; visited flags as u64 words.
    uint64_t wl = lay.alloc((gi.n + 64) * 8);
    uint64_t visited = lay.alloc(gi.n * 8);

    // Seed a handful of well-connected roots so the frontier is
    // non-trivial (multi-source BFS; same access pattern).
    auto roots = pickRoots(g, seed ^ 0xbf5, 8);
    uint64_t seeds = roots.size();
    for (uint64_t s = 0; s < seeds; s++) {
        w.image.write64(wl + s * 8, roots[s]);
        w.image.write64(visited + roots[s] * 8, 1);
    }

    ProgramBuilder b(w.name);
    auto exit_l = b.makeLabel();
    auto skip_l = b.makeLabel();
    auto outer_top = b.here();
    b.cmpltu(R_CND, R_HEAD, R_TAIL);
    b.brz(R_CND, exit_l);
    b.ld(R_V, R_WL, R_HEAD, 8);          // v = wl[head]  (outer stride)
    b.addi(R_HEAD, R_HEAD, 1);
    b.ld(R_J, R_OFF, R_V, 8);            // start = offsets[v]
    b.ld(R_END, R_OFF, R_V, 8, 8);       // end = offsets[v+1]
    b.cmpltu(R_CND, R_J, R_END);
    b.brz(R_CND, outer_top);
    auto inner_top = b.here();
    b.ld(R_E, R_EDG, R_J, 8);            // e = edges[j]  (inner stride)
    b.ld(R_T1, R_AUX, R_E, 8);           // visited[e]    (indirect)
    b.br(R_T1, skip_l);                  // data-dependent branch
    b.st(R_ONE, R_AUX, R_E, 8);          // visited[e] = 1
    b.st(R_E, R_WL, R_TAIL, 8);          // push e
    b.addi(R_TAIL, R_TAIL, 1);
    b.bind(skip_l);
    b.addi(R_J, R_J, 1);
    b.cmpltu(R_CND, R_J, R_END);         // LCR compare (j, end)
    b.br(R_CND, inner_top);              // backward loop branch
    b.jmp(outer_top);
    b.bind(exit_l);
    b.halt();
    w.prog = b.build();

    w.init.regs[R_WL] = wl;
    w.init.regs[R_HEAD] = 0;
    w.init.regs[R_TAIL] = seeds;
    w.init.regs[R_OFF] = gi.offsets;
    w.init.regs[R_EDG] = gi.edges;
    w.init.regs[R_AUX] = visited;
    w.init.regs[R_ONE] = 1;
    return w;
}

Workload
makePrFromGraph(const Graph &g, const std::string &name, uint64_t seed)
{
    (void)seed;
    Workload w;
    w.name = name;
    Layout lay;
    GraphImage gi = loadGraph(w.image, lay, g);

    // Pull-style PageRank iteration: rank_new[v] = sum of contrib of
    // incoming neighbors (we reuse the out-CSR as in-CSR; the access
    // pattern is identical).
    std::vector<double> contrib(gi.n);
    for (uint64_t v = 0; v < gi.n; v++)
        contrib[v] = 1.0 / double(gi.n) /
                     double(std::max<uint64_t>(1, g.degree(v)));
    uint64_t contrib_base = lay.putF64(w.image, contrib);
    uint64_t rank_new = lay.alloc(gi.n * 8);

    ProgramBuilder b(w.name);
    auto exit_l = b.makeLabel();
    auto row_done = b.makeLabel();
    auto outer_top = b.here();
    b.cmpltu(R_CND, R_V, R_N);
    b.brz(R_CND, exit_l);
    b.ld(R_J, R_OFF, R_V, 8);
    b.ld(R_END, R_OFF, R_V, 8, 8);
    b.movi(R_SUM, 0);                    // 0.0 bits
    b.cmpltu(R_CND, R_J, R_END);
    b.brz(R_CND, row_done);
    auto inner_top = b.here();
    b.ld(R_E, R_EDG, R_J, 8);            // u = edges[j]   (stride)
    b.ld(R_T1, R_AUX, R_E, 8);           // contrib[u]     (indirect)
    b.fadd(R_SUM, R_SUM, R_T1);
    b.addi(R_J, R_J, 1);
    b.cmpltu(R_CND, R_J, R_END);
    b.br(R_CND, inner_top);
    b.bind(row_done);
    b.st(R_SUM, R_AUX2, R_V, 8);         // rank_new[v] = sum
    b.addi(R_V, R_V, 1);
    b.jmp(outer_top);
    b.bind(exit_l);
    b.halt();
    w.prog = b.build();

    w.init.regs[R_OFF] = gi.offsets;
    w.init.regs[R_EDG] = gi.edges;
    w.init.regs[R_AUX] = contrib_base;
    w.init.regs[R_AUX2] = rank_new;
    w.init.regs[R_V] = 0;
    w.init.regs[R_N] = gi.n;
    return w;
}

Workload
makeCcFromGraph(const Graph &g, const std::string &name, uint64_t seed)
{
    (void)seed;
    Workload w;
    w.name = name;
    Layout lay;
    GraphImage gi = loadGraph(w.image, lay, g);

    // One hooking pass of Shiloach-Vishkin: for every edge (v,u),
    // comp[v] = min(comp[v], comp[u]).
    std::vector<uint64_t> comp(gi.n);
    for (uint64_t v = 0; v < gi.n; v++)
        comp[v] = v;
    uint64_t comp_base = lay.put64(w.image, comp);

    ProgramBuilder b(w.name);
    auto exit_l = b.makeLabel();
    auto no_hook = b.makeLabel();
    auto outer_top = b.here();
    b.cmpltu(R_CND, R_V, R_N);
    b.brz(R_CND, exit_l);
    b.ld(R_J, R_OFF, R_V, 8);
    b.ld(R_END, R_OFF, R_V, 8, 8);
    b.ld(R_T2, R_AUX, R_V, 8);           // comp[v]
    b.cmpltu(R_CND, R_J, R_END);
    b.brz(R_CND, no_hook);
    auto inner_top = b.here();
    b.ld(R_E, R_EDG, R_J, 8);            // u = edges[j]   (stride)
    b.ld(R_T1, R_AUX, R_E, 8);           // comp[u]        (indirect)
    b.cmpltu(R_CND, R_T1, R_T2);
    auto skip_hook = b.makeLabel();
    b.brz(R_CND, skip_hook);             // data-dependent branch
    // Hook: comp[v] = comp[u].
    b.mov(R_T2, R_T1);
    b.st(R_T1, R_AUX, R_V, 8);
    b.bind(skip_hook);
    b.addi(R_J, R_J, 1);
    b.cmpltu(R_CND, R_J, R_END);
    b.br(R_CND, inner_top);
    b.bind(no_hook);
    b.addi(R_V, R_V, 1);
    b.jmp(outer_top);
    b.bind(exit_l);
    b.halt();
    w.prog = b.build();

    w.init.regs[R_OFF] = gi.offsets;
    w.init.regs[R_EDG] = gi.edges;
    w.init.regs[R_AUX] = comp_base;
    w.init.regs[R_V] = 0;
    w.init.regs[R_N] = gi.n;
    return w;
}

Workload
makeSsspFromGraph(const Graph &g, const std::string &name, uint64_t seed)
{
    Workload w;
    w.name = name;
    Layout lay;
    GraphImage gi = loadGraph(w.image, lay, g);

    // Bellman-Ford-style relaxations driven by a worklist.
    Rng rng(seed ^ 0x55e);
    std::vector<uint64_t> weights(gi.m);
    for (uint64_t e = 0; e < gi.m; e++)
        weights[e] = 1 + rng.below(255);
    uint64_t wgt = lay.put64(w.image, weights);

    std::vector<uint64_t> dist(gi.n, UINT32_MAX);
    auto roots = pickRoots(g, seed ^ 0x55e1, 8);
    uint64_t dist_base;
    uint64_t wl = 0;
    {
        for (uint64_t r : roots)
            dist[r] = 0;
        dist_base = lay.put64(w.image, dist);
        wl = lay.alloc((4 * gi.n + 64) * 8);
        for (size_t s = 0; s < roots.size(); s++)
            w.image.write64(wl + s * 8, roots[s]);
    }

    ProgramBuilder b(w.name);
    auto exit_l = b.makeLabel();
    auto no_relax = b.makeLabel();
    auto outer_top = b.here();
    b.cmpltu(R_CND, R_HEAD, R_TAIL);
    b.brz(R_CND, exit_l);
    b.andi(R_T1, R_HEAD, (4 * gi.n) - 1); // ring worklist
    b.ld(R_V, R_WL, R_T1, 8);            // v = wl[head]
    b.addi(R_HEAD, R_HEAD, 1);
    b.ld(R_J, R_OFF, R_V, 8);
    b.ld(R_END, R_OFF, R_V, 8, 8);
    b.ld(R_T2, R_AUX, R_V, 8);           // dist[v]
    b.cmpltu(R_CND, R_J, R_END);
    b.brz(R_CND, outer_top);
    auto inner_top = b.here();
    b.ld(R_E, R_EDG, R_J, 8);            // u = edges[j]   (stride)
    b.ld(R_T1, R_AUX2, R_J, 8);          // w = weights[j] (stride)
    b.add(R_T1, R_T2, R_T1);             // nd = dist[v] + w
    b.ld(R_SUM, R_AUX, R_E, 8);          // dist[u]        (indirect)
    b.cmpltu(R_CND, R_T1, R_SUM);
    b.brz(R_CND, no_relax);              // data-dependent branch
    b.st(R_T1, R_AUX, R_E, 8);           // dist[u] = nd
    b.andi(R_AUX3, R_TAIL, (4 * gi.n) - 1);
    b.st(R_E, R_WL, R_AUX3, 8);          // push u
    b.addi(R_TAIL, R_TAIL, 1);
    b.bind(no_relax);
    b.addi(R_J, R_J, 1);
    b.cmpltu(R_CND, R_J, R_END);
    b.br(R_CND, inner_top);
    b.jmp(outer_top);
    b.bind(exit_l);
    b.halt();
    w.prog = b.build();

    w.init.regs[R_WL] = wl;
    w.init.regs[R_HEAD] = 0;
    w.init.regs[R_TAIL] = roots.size();
    w.init.regs[R_OFF] = gi.offsets;
    w.init.regs[R_EDG] = gi.edges;
    w.init.regs[R_AUX] = dist_base;
    w.init.regs[R_AUX2] = wgt;
    return w;
}

Workload
makeBcFromGraph(const Graph &g, const std::string &name, uint64_t seed)
{
    Workload w;
    w.name = name;
    Layout lay;
    GraphImage gi = loadGraph(w.image, lay, g);

    // Brandes forward phase: BFS with shortest-path counting. The two
    // divergent paths (discover vs. recount) touch different arrays,
    // giving the broad divergence the paper attributes to bc.
    std::vector<uint64_t> depth(gi.n, UINT32_MAX);
    std::vector<uint64_t> sigma(gi.n, 0);
    auto roots = pickRoots(g, seed ^ 0xbc1, 4);
    for (uint64_t r : roots) {
        depth[r] = 0;
        sigma[r] = 1;
    }
    uint64_t depth_base = lay.put64(w.image, depth);
    uint64_t sigma_base = lay.put64(w.image, sigma);
    uint64_t wl = lay.alloc((gi.n + 64) * 8);
    for (size_t s = 0; s < roots.size(); s++)
        w.image.write64(wl + s * 8, roots[s]);

    constexpr uint8_t R_DV = 19;    //!< depth[v]
    constexpr uint8_t R_SV = 20;    //!< sigma[v]

    ProgramBuilder b(w.name);
    auto exit_l = b.makeLabel();
    auto next_e = b.makeLabel();
    auto recount = b.makeLabel();
    auto outer_top = b.here();
    b.cmpltu(R_CND, R_HEAD, R_TAIL);
    b.brz(R_CND, exit_l);
    b.ld(R_V, R_WL, R_HEAD, 8);          // v = wl[head]
    b.addi(R_HEAD, R_HEAD, 1);
    b.ld(R_J, R_OFF, R_V, 8);
    b.ld(R_END, R_OFF, R_V, 8, 8);
    b.ld(R_DV, R_AUX, R_V, 8);           // depth[v]
    b.ld(R_SV, R_AUX2, R_V, 8);          // sigma[v]
    b.addi(R_DV, R_DV, 1);               // d+1
    b.cmpltu(R_CND, R_J, R_END);
    b.brz(R_CND, outer_top);
    auto inner_top = b.here();
    b.ld(R_E, R_EDG, R_J, 8);            // u = edges[j]   (stride)
    b.ld(R_T1, R_AUX, R_E, 8);           // depth[u]       (indirect)
    b.cmpeqi(R_CND, R_T1, int64_t(UINT32_MAX));
    b.brz(R_CND, recount);               // visited before?
    // Path A: first discovery.
    b.st(R_DV, R_AUX, R_E, 8);           // depth[u] = d+1
    b.st(R_SV, R_AUX2, R_E, 8);          // sigma[u] = sigma[v]
    b.st(R_E, R_WL, R_TAIL, 8);          // push u
    b.addi(R_TAIL, R_TAIL, 1);
    b.jmp(next_e);
    b.bind(recount);
    // Path B: same-level recount, touches sigma only.
    b.cmpeq(R_CND, R_T1, R_DV);
    b.brz(R_CND, next_e);
    b.ld(R_T2, R_AUX2, R_E, 8);          // sigma[u]       (indirect)
    b.add(R_T2, R_T2, R_SV);
    b.st(R_T2, R_AUX2, R_E, 8);
    b.bind(next_e);
    b.addi(R_J, R_J, 1);
    b.cmpltu(R_CND, R_J, R_END);
    b.br(R_CND, inner_top);
    b.jmp(outer_top);
    b.bind(exit_l);
    b.halt();
    w.prog = b.build();

    w.init.regs[R_WL] = wl;
    w.init.regs[R_HEAD] = 0;
    w.init.regs[R_TAIL] = roots.size();
    w.init.regs[R_OFF] = gi.offsets;
    w.init.regs[R_EDG] = gi.edges;
    w.init.regs[R_AUX] = depth_base;
    w.init.regs[R_AUX2] = sigma_base;
    return w;
}

} // namespace vrsim
