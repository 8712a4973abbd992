#include "suite.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "driver/report.hh"
#include "sim/digest.hh"
#include "sim/parse.hh"

namespace vrbench
{

using namespace vrsim;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "hpcdb-detailed", "gap-detailed", "ff-prefix", "sampled-bfs-ur"};
    return names;
}

BenchWorkload
makeBenchWorkload(const std::string &name, uint64_t seed, bool smoke)
{
    BenchWorkload w;
    w.name = name;
    w.gscale.seed = seed;
    w.hscale.seed = seed;
    if (name == "hpcdb-detailed") {
        // Branch-free, DRAM-bound kernels: host time goes to the core,
        // the memory calendars and the VR/DVR lanes.
        w.specs = {"camel", "kangaroo"};
        w.hscale.elements = smoke ? 8192 : 262144;
        w.sampling.ff_insts = smoke ? 5000 : 500'000;
        w.warmup = smoke ? 2000 : 60'000;
        w.roi = smoke ? 20'000 : 600'000;
        w.check_digests = true;
    } else if (name == "gap-detailed") {
        // The same layers driven by control-heavy code: mispredicts,
        // divergent lanes, IMP pattern tables.
        w.specs = {"bfs/KR", "sssp/UR"};
        w.gscale.nodes = smoke ? 2048 : 16384;
        w.gscale.avg_degree = smoke ? 8 : 16;
        w.sampling.ff_insts = smoke ? 5000 : 200'000;
        w.warmup = smoke ? 2000 : 50'000;
        w.roi = smoke ? 20'000 : 500'000;
        w.check_digests = true;
    } else if (name == "ff-prefix") {
        // Nearly all host time in the functional interpreter.
        w.specs = {"camel"};
        w.hscale.elements = smoke ? 16384 : 1u << 20;
        w.sampling.ff_insts = smoke ? 200'000 : 20'000'000;
        w.roi = smoke ? 5000 : 100'000;
    } else if (name == "sampled-bfs-ur") {
        // SMARTS sampling: graph build dominates set-up, warming ff
        // and short detailed windows dominate the sweep.
        w.specs = {"bfs/UR"};
        w.gscale.nodes = smoke ? 16384 : 1u << 19;
        w.gscale.avg_degree = 8;
        w.sampling.ff_insts = smoke ? 10'000 : 1'000'000;
        w.sampling.period = smoke ? 10'000 : 100'000;
        w.sampling.detail = smoke ? 1000 : 10'000;
        w.sampling.warm = smoke ? 1000 : 15'000;
        w.roi = smoke ? 50'000 : 2'000'000;
    } else {
        std::string valid;
        for (const auto &n : workloadNames())
            valid += (valid.empty() ? "" : ", ") + n;
        fatal("unknown workload '" + name + "' (valid: " + valid + ")");
    }
    return w;
}

namespace
{

const std::vector<TechColumn> &
allColumns()
{
    static const std::vector<TechColumn> cols = {
        Technique::OoO, Technique::Pre, Technique::Imp, Technique::Vr,
        Technique::DvrOffload, Technique::DvrDiscovery, Technique::Dvr,
        Technique::Oracle};
    return cols;
}

void
writeObject(std::ostream &os, const std::map<std::string, double> &m)
{
    os << "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(k)
           << "\": " << num(v);
        first = false;
    }
    os << "}";
}

std::map<std::string, double>
readObject(const JsonValue &obj)
{
    std::map<std::string, double> m;
    for (const auto &k : obj.keys())
        m[k] = obj.at(k).asF64();
    return m;
}

} // namespace

RunPlan
makePlan(const BenchWorkload &w)
{
    RunPlan plan;
    plan.scale(w.gscale, w.hscale).roi(w.roi).warmup(w.warmup)
        .sample(w.sampling).add(w.specs, allColumns());
    return plan;
}

RunPlan
makeFullDetailPlan(const BenchWorkload &w)
{
    RunPlan plan;
    plan.scale(w.gscale, w.hscale).roi(w.roi).ffInsts(w.sampling.ff_insts)
        .add(w.specs, allColumns());
    return plan;
}

uint64_t
ffInsts(const SimResult &r)
{
    return r.sample ? r.sample->ff_insts : 0;
}

uint64_t
detailedInsts(const RunPoint &p, const SimResult &r)
{
    if (p.sampling.sampling())
        return r.core.instructions + (r.sample ? r.sample->warm_insts : 0);
    return r.core.instructions + (r.ok() ? p.warmup : 0);
}

CellStats
cellStats(const ResultTable &table)
{
    CellStats out;
    for (size_t i = 0; i < table.size(); i++) {
        StatsRegistry reg = buildRegistry(table.results()[i]);
        auto &cell = out[table.points()[i].id()];
        reg.visit([&](const StatNode &n) {
            if (n.path().rfind("host.", 0) != 0)
                cell[n.path()] = n.value(reg);
        });
    }
    return out;
}

std::vector<std::string>
mismatchedCells(const CellStats &got, const CellStats &ref)
{
    std::vector<std::string> bad;
    for (const auto &[id, stats] : got) {
        auto it = ref.find(id);
        if (it == ref.end() || it->second != stats)
            bad.push_back(id);
    }
    for (const auto &[id, stats] : ref)
        if (!got.count(id))
            bad.push_back(id);
    return bad;
}

std::string
referencePath(const std::string &dir, const std::string &workload,
              uint64_t seed)
{
    return dir + "/" + workload + ".seed" + std::to_string(seed) +
           ".json";
}

std::optional<Reference>
loadReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue doc = JsonValue::parse(path, ss.str());
    Reference ref;
    const JsonValue &cells = doc.at("cells");
    for (const auto &id : cells.keys())
        ref.cells[id] = readObject(cells.at(id));
    if (const JsonValue *cpi = doc.find("full_detail_cpi"))
        ref.full_detail_cpi = readObject(*cpi);
    return ref;
}

void
writeReference(const std::string &path, const BenchWorkload &w,
               uint64_t seed, const Reference &ref)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        fatal("cannot write reference '" + path + "'");
    os << "{\n\"workload\": \"" << jsonEscape(w.name) << "\",\n"
       << "\"seed\": " << seed << ",\n\"cells\": {\n";
    bool first = true;
    for (const auto &[id, stats] : ref.cells) {
        os << (first ? "" : ",\n") << "\"" << jsonEscape(id) << "\": ";
        writeObject(os, stats);
        first = false;
    }
    os << "\n}";
    if (!ref.full_detail_cpi.empty()) {
        os << ",\n\"full_detail_cpi\": ";
        writeObject(os, ref.full_detail_cpi);
    }
    os << "\n}\n";
    if (!os.flush())
        fatal("cannot write reference '" + path + "'");
}

std::optional<double>
cpiErrorPct(const ResultTable &table, const Reference &ref)
{
    std::optional<double> worst;
    for (size_t i = 0; i < table.size(); i++) {
        const SimResult &r = table.results()[i];
        if (!r.ok())
            continue;
        if (!r.sample || !r.sample->intervals) {
            worst = worst.value_or(0.0);  // full detail: its own reference
            continue;
        }
        auto it = ref.full_detail_cpi.find(table.points()[i].id());
        if (it == ref.full_detail_cpi.end())
            continue;
        double err =
            std::fabs(r.sample->cpiMean() - it->second) / it->second;
        worst = std::max(worst.value_or(0.0), 100.0 * err);
    }
    return worst;
}

uint64_t
inputFingerprint(const BenchWorkload &w, WorkloadCache &cache)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &spec : w.specs) {
        Workload x = cache.instantiate(spec, w.gscale, w.hscale);
        StateDigest digest;
        CpuState state = x.init;
        fastForward(x.prog, state, x.image, 1u << 16, &digest);
        h = (h ^ digest.record().final_digest) * 0x100000001b3ull;
    }
    return h;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        return {median(v), median(v)};
    std::sort(v.begin(), v.end());
    // Python's default "exclusive" method: positions i * (n + 1) / 4.
    const long n = long(v.size());
    auto at = [&](long i) {
        long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
        long delta = i * (n + 1) - j * 4;
        return (v[j - 1] * double(4 - delta) + v[j] * double(delta)) / 4.0;
    };
    return {at(1), at(3)};
}

} // namespace vrbench
