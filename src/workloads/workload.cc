#include "workloads/workload.hh"

#include "workloads/graph_io.hh"

#include "sim/logging.hh"

namespace vrsim
{

const std::vector<std::string> &
gapKernelNames()
{
    static const std::vector<std::string> names =
        {"bc", "bfs", "cc", "pr", "sssp"};
    return names;
}

const std::vector<std::string> &
hpcDbNames()
{
    static const std::vector<std::string> names =
        {"camel", "graph500", "hj2", "hj8", "kangaroo", "nas-cg",
         "nas-is", "randomaccess"};
    return names;
}

namespace
{

GraphInput
parseInput(const std::string &s)
{
    if (s == "KR") return GraphInput::Kron;
    if (s == "LJN") return GraphInput::Ljn;
    if (s == "ORK") return GraphInput::Ork;
    if (s == "TW") return GraphInput::Tw;
    if (s == "UR") return GraphInput::Ur;
    fatal("unknown graph input: " + s);
}

using GapBuilder = Workload (*)(const Graph &, const std::string &,
                                uint64_t);

GapBuilder
gapBuilder(const std::string &kernel)
{
    if (kernel == "bfs") return makeBfsFromGraph;
    if (kernel == "pr") return makePrFromGraph;
    if (kernel == "cc") return makeCcFromGraph;
    if (kernel == "sssp") return makeSsspFromGraph;
    if (kernel == "bc") return makeBcFromGraph;
    fatal("unknown GAP kernel: " + kernel);
}

} // namespace

Workload
makeWorkload(const std::string &spec, const GraphScale &gscale,
             const HpcDbScale &hscale)
{
    auto slash = spec.find('/');
    if (slash != std::string::npos) {
        std::string kernel = spec.substr(0, slash);
        std::string rest = spec.substr(slash + 1);
        // Input and kernel are checked before any graph is built.
        if (rest.rfind("file:", 0) == 0) {
            // "bfs/file:/path/to/graph.el": run on a real graph.
            GapBuilder build = gapBuilder(kernel);
            return build(loadGraph(rest.substr(5)), spec, gscale.seed);
        }
        GraphInput input = parseInput(rest);
        GapBuilder build = gapBuilder(kernel);
        return build(makeGraph(input, gscale), spec, gscale.seed);
    }
    if (spec == "camel") return makeCamel(hscale);
    if (spec == "camel-swpf") return makeCamelSwPf(hscale);
    if (spec == "graph500") return makeGraph500(hscale);
    if (spec == "hj2") return makeHashJoin(2, hscale);
    if (spec == "hj8") return makeHashJoin(8, hscale);
    if (spec == "kangaroo") return makeKangaroo(hscale);
    if (spec == "nas-cg") return makeNasCg(hscale);
    if (spec == "nas-is") return makeNasIs(hscale);
    if (spec == "randomaccess") return makeRandomAccess(hscale);
    fatal("unknown workload: " + spec);
}

} // namespace vrsim
