#include "workloads/workload.hh"

#include <algorithm>

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

void
HpcDbScale::validate(const std::string &spec) const
{
    if (elements < MIN_ELEMENTS || elements > MAX_ELEMENTS)
        fatal("hscale.elements (--elems) must be in [" +
              std::to_string(MIN_ELEMENTS) + ", " +
              std::to_string(MAX_ELEMENTS) + "], got " +
              std::to_string(elements));
    if (spec == "graph500" && elements > 4096 &&
        (elements & (elements - 1)) != 0)
        fatal("hscale.elements (--elems) " + std::to_string(elements) +
              " does not fit graph500: its RMAT graph has max(4096, "
              "elements) nodes, so elements above 4096 must be a "
              "power of two");
}

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
        gscale.validate(input);
        return build(makeGraph(input, gscale), spec, gscale.seed);
    }
    const std::vector<std::string> &names = hpcDbNames();
    if (spec == "camel-swpf" ||
        std::find(names.begin(), names.end(), spec) != names.end())
        hscale.validate(spec);
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
