#include "driver/repro.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "sim/parse.hh"

namespace vrsim
{

namespace
{

// ---- JSON writing primitives ----

std::string
u64(uint64_t v)
{
    return std::to_string(v);
}

std::string
f64(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  (unsigned long long)v);
    return buf;
}

std::string
str(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
boolean(bool b)
{
    return b ? "true" : "false";
}

/** Tiny builder for one-line JSON objects. */
struct Obj
{
    std::string out = "{";
    bool first = true;

    Obj &
    field(const char *key, const std::string &raw)
    {
        if (!first)
            out += ",";
        first = false;
        out += "\"";
        out += key;
        out += "\":";
        out += raw;
        return *this;
    }

    std::string done() { return out + "}"; }
};

uint64_t
hexFromJson(const JsonValue &v)
{
    const std::string &s = v.asString();
    char *end = nullptr;
    unsigned long long x = std::strtoull(s.c_str(), &end, 16);
    if (s.empty() || *end != '\0')
        fatal("malformed hex digest '" + s + "' in bundle/journal");
    return x;
}

// ---- record blocks: one key table per serialized struct ----

/** A JSON key and the member it serializes. */
template <class T, class M>
struct Key
{
    const char *key;
    M T::*member;
};

/** The key table of each struct serialized member by member. */
template <class T>
constexpr const auto &
keysOf(const T &)
    requires requires { T::fields; }
{
    return T::fields;  // statistics records (obs/stat_table.hh)
}

// Configuration blocks are keyed by their member names, so a key
// cannot drift from the member it names.
#define VRSIM_KEY(T, m) Key{#m, &T::m}

constexpr std::tuple CACHE_KEYS{
    VRSIM_KEY(CacheConfig, size_bytes), VRSIM_KEY(CacheConfig, assoc),
    VRSIM_KEY(CacheConfig, line_bytes), VRSIM_KEY(CacheConfig, latency),
    VRSIM_KEY(CacheConfig, mshrs), VRSIM_KEY(CacheConfig, ports),
    VRSIM_KEY(CacheConfig, repl),
};

constexpr std::tuple CORE_KEYS{
    VRSIM_KEY(CoreConfig, width), VRSIM_KEY(CoreConfig, rob_size),
    VRSIM_KEY(CoreConfig, issue_queue), VRSIM_KEY(CoreConfig, load_queue),
    VRSIM_KEY(CoreConfig, store_queue), VRSIM_KEY(CoreConfig, frontend_stages),
    VRSIM_KEY(CoreConfig, int_add_units), VRSIM_KEY(CoreConfig, int_add_lat),
    VRSIM_KEY(CoreConfig, int_mul_units), VRSIM_KEY(CoreConfig, int_mul_lat),
    VRSIM_KEY(CoreConfig, int_div_units), VRSIM_KEY(CoreConfig, int_div_lat),
    VRSIM_KEY(CoreConfig, fp_add_units), VRSIM_KEY(CoreConfig, fp_add_lat),
    VRSIM_KEY(CoreConfig, fp_mul_units), VRSIM_KEY(CoreConfig, fp_mul_lat),
    VRSIM_KEY(CoreConfig, fp_div_units), VRSIM_KEY(CoreConfig, fp_div_lat),
    VRSIM_KEY(CoreConfig, load_ports), VRSIM_KEY(CoreConfig, store_ports),
    VRSIM_KEY(CoreConfig, int_phys_regs), VRSIM_KEY(CoreConfig, vec_phys_regs),
};

constexpr std::tuple DRAM_KEYS{
    VRSIM_KEY(DramConfig, latency), VRSIM_KEY(DramConfig, bytes_per_cycle),
    VRSIM_KEY(DramConfig, channels),
};

constexpr std::tuple STRIDE_PF_KEYS{
    VRSIM_KEY(StridePrefetcherConfig, enabled),
    VRSIM_KEY(StridePrefetcherConfig, streams),
    VRSIM_KEY(StridePrefetcherConfig, degree),
    VRSIM_KEY(StridePrefetcherConfig, train_threshold),
};

constexpr std::tuple IMP_KEYS{
    VRSIM_KEY(ImpConfig, table_entries),
    VRSIM_KEY(ImpConfig, prefetch_distance),
    VRSIM_KEY(ImpConfig, train_threshold),
};

constexpr std::tuple RUNAHEAD_KEYS{
    VRSIM_KEY(RunaheadConfig, stride_entries),
    VRSIM_KEY(RunaheadConfig, stride_confidence),
    VRSIM_KEY(RunaheadConfig, vector_regs),
    VRSIM_KEY(RunaheadConfig, lanes_per_vector),
    VRSIM_KEY(RunaheadConfig, discovery_max_insts),
    VRSIM_KEY(RunaheadConfig, subthread_timeout),
    VRSIM_KEY(RunaheadConfig, nested_trigger_lanes),
    VRSIM_KEY(RunaheadConfig, reconv_stack_entries),
    VRSIM_KEY(RunaheadConfig, frontend_buffer_uops),
    VRSIM_KEY(RunaheadConfig, pre_chain_cap),
    VRSIM_KEY(RunaheadConfig, max_budget_bytes),
};

constexpr std::tuple CONFIG_KEYS{
    VRSIM_KEY(SystemConfig, core), VRSIM_KEY(SystemConfig, l1i),
    VRSIM_KEY(SystemConfig, l1d), VRSIM_KEY(SystemConfig, l2),
    VRSIM_KEY(SystemConfig, l3), VRSIM_KEY(SystemConfig, dram),
    VRSIM_KEY(SystemConfig, stride_pf), VRSIM_KEY(SystemConfig, imp),
    VRSIM_KEY(SystemConfig, runahead), VRSIM_KEY(SystemConfig, technique),
    VRSIM_KEY(SystemConfig, max_insts),
    VRSIM_KEY(SystemConfig, watchdog_cycles),
    VRSIM_KEY(SystemConfig, invariant_checks),
    VRSIM_KEY(SystemConfig, collect_digest),
    VRSIM_KEY(SystemConfig, digest_interval),
};

constexpr std::tuple FEATURE_KEYS{
    VRSIM_KEY(DvrFeatures, discovery), VRSIM_KEY(DvrFeatures, nested),
    VRSIM_KEY(DvrFeatures, reconverge),
};

constexpr std::tuple GSCALE_KEYS{
    VRSIM_KEY(GraphScale, nodes), VRSIM_KEY(GraphScale, avg_degree),
    VRSIM_KEY(GraphScale, seed),
};

constexpr std::tuple HSCALE_KEYS{
    VRSIM_KEY(HpcDbScale, elements), VRSIM_KEY(HpcDbScale, seed),
};

constexpr std::tuple SAMPLING_KEYS{
    VRSIM_KEY(SamplingPlan, ff_insts), VRSIM_KEY(SamplingPlan, period),
    VRSIM_KEY(SamplingPlan, detail), VRSIM_KEY(SamplingPlan, warm),
};

#undef VRSIM_KEY

constexpr const auto &keysOf(const CacheConfig &) { return CACHE_KEYS; }
constexpr const auto &keysOf(const CoreConfig &) { return CORE_KEYS; }
constexpr const auto &keysOf(const DramConfig &) { return DRAM_KEYS; }

constexpr const auto &
keysOf(const StridePrefetcherConfig &)
{
    return STRIDE_PF_KEYS;
}

constexpr const auto &keysOf(const ImpConfig &) { return IMP_KEYS; }
constexpr const auto &keysOf(const RunaheadConfig &) { return RUNAHEAD_KEYS; }
constexpr const auto &keysOf(const SystemConfig &) { return CONFIG_KEYS; }
constexpr const auto &keysOf(const DvrFeatures &) { return FEATURE_KEYS; }
constexpr const auto &keysOf(const GraphScale &) { return GSCALE_KEYS; }
constexpr const auto &keysOf(const HpcDbScale &) { return HSCALE_KEYS; }
constexpr const auto &keysOf(const SamplingPlan &) { return SAMPLING_KEYS; }

std::string jsonOf(uint64_t v) { return u64(v); }
std::string jsonOf(uint32_t v) { return u64(v); }
std::string jsonOf(double v) { return f64(v); }
std::string jsonOf(bool v) { return boolean(v); }
std::string jsonOf(ReplPolicy v) { return u64(uint64_t(v)); }
std::string jsonOf(Technique v) { return str(techniqueName(v)); }

std::string
jsonOf(const StatVec &v)
{
    std::string arr;
    for (uint64_t x : v)
        arr += (arr.empty() ? "[" : ",") + u64(x);
    return arr + "]";
}

/** A struct with a key table: one field per row, in table order. */
template <class T>
auto
jsonOf(const T &t) -> decltype(keysOf(t), std::string())
{
    Obj o;
    std::apply(
        [&](const auto &...k) { (o.field(k.key, jsonOf(t.*k.member)), ...); },
        keysOf(t));
    return o.done();
}

void read(const JsonValue &v, const char *, uint64_t &x) { x = v.asU64(); }
void read(const JsonValue &v, const char *, double &x) { x = v.asF64(); }
void read(const JsonValue &v, const char *, bool &x) { x = v.asBool(); }

void
read(const JsonValue &v, const char *, uint32_t &x)
{
    x = uint32_t(v.asU64());
}

void
read(const JsonValue &v, const char *, ReplPolicy &x)
{
    uint64_t repl = v.asU64();
    if (repl > uint64_t(ReplPolicy::Random))
        fatal("bad replacement-policy code " + std::to_string(repl));
    x = ReplPolicy(repl);
}

void
read(const JsonValue &v, const char *, Technique &x)
{
    x = techniqueFromName(v.asString());
}

void
read(const JsonValue &v, const char *key, StatVec &x)
{
    const auto &arr = v.asArray();
    if (arr.size() != x.size())
        fatal(std::string(key) + " has " + std::to_string(arr.size()) +
              " entries, expected " + std::to_string(x.size()));
    for (size_t i = 0; i < x.size(); i++)
        x[i] = arr[i].asU64();
}

template <class T>
auto
read(const JsonValue &v, const char *, T &t) -> decltype(keysOf(t), void())
{
    std::apply(
        [&](const auto &...k) {
            (read(v.at(k.key), k.key, t.*k.member), ...);
        },
        keysOf(t));
}

/** Parse a struct with a key table; fatal() on any missing key. */
template <class T>
T
fromJson(const JsonValue &v)
{
    T t;
    read(v, "", t);
    return t;
}

DigestRecord
digestFromJson(const JsonValue &v)
{
    DigestRecord d;
    d.interval = v.at("interval").asU64();
    d.instructions = v.at("instructions").asU64();
    d.final_digest = hexFromJson(v.at("final_digest"));
    for (const JsonValue &e : v.at("intervals").asArray())
        d.intervals.push_back(hexFromJson(e));
    return d;
}

std::string
divergenceToJson(const DigestDivergence &d)
{
    return Obj{}
        .field("interval_index", u64(d.interval_index))
        .field("inst_lo", u64(d.inst_lo))
        .field("inst_hi", u64(d.inst_hi))
        .field("expected", hex64(d.expected))
        .field("actual", hex64(d.actual))
        .done();
}

DigestDivergence
divergenceFromJson(const JsonValue &v)
{
    DigestDivergence d;
    d.interval_index = v.at("interval_index").asU64();
    d.inst_lo = v.at("inst_lo").asU64();
    d.inst_hi = v.at("inst_hi").asU64();
    d.expected = hexFromJson(v.at("expected"));
    d.actual = hexFromJson(v.at("actual"));
    return d;
}

SimResult
resultFromJsonValue(const JsonValue &v)
{
    SimResult r;
    r.workload = v.at("workload").asString();
    r.technique = techniqueFromName(v.at("technique").asString());
    r.status = simStatusFromName(v.at("status").asString());
    r.status_message = v.at("status_message").asString();
    r.core = fromJson<CoreStats>(v.at("core"));
    r.mem = fromJson<MemStats>(v.at("mem"));
    r.mlp = v.at("mlp").asF64();
    if (const JsonValue *p = v.find("term_signal"))
        r.term_signal = int(p->asU64());
    if (const JsonValue *p = v.find("rss_peak_kb"))
        r.rss_peak_kb = p->asU64();
    if (const JsonValue *p = v.find("pre"))
        r.pre = fromJson<PreStats>(*p);
    if (const JsonValue *p = v.find("vr"))
        r.vr = fromJson<VrStats>(*p);
    if (const JsonValue *p = v.find("dvr"))
        r.dvr = fromJson<DvrStats>(*p);
    if (const JsonValue *p = v.find("digest"))
        r.digest = digestFromJson(*p);
    if (const JsonValue *p = v.find("sample"))
        r.sample = fromJson<SampleSummary>(*p);
    return r;
}

RunPoint
pointFromJsonValue(const JsonValue &v)
{
    RunPoint p;
    p.spec = v.at("spec").asString();
    p.technique = techniqueFromName(v.at("technique").asString());
    p.column = v.at("column").asString();
    p.variant = v.at("variant").asString();
    if (const JsonValue *f = v.find("features"))
        p.features = fromJson<DvrFeatures>(*f);
    p.cfg = fromJson<SystemConfig>(v.at("cfg"));
    p.gscale = fromJson<GraphScale>(v.at("gscale"));
    p.hscale = fromJson<HpcDbScale>(v.at("hscale"));
    p.max_insts = v.at("max_insts").asU64();
    p.warmup = v.at("warmup").asU64();
    if (const JsonValue *s = v.find("sampling")) {
        p.sampling = fromJson<SamplingPlan>(*s);
        p.sampling.validate();
    }
    if (v.at("inject_fail").asBool())
        p.inject_kind = injectKindFromName(v.at("inject_kind").asString());
    if (const JsonValue *a = v.find("inject_arg"))
        p.inject_arg = uint32_t(a->asU64());
    return p;
}

/** FNV-1a over a byte string. */
uint64_t
fnv1aStr(uint64_t h, const std::string &s)
{
    for (unsigned char b : s) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
sanitizeForFilename(const std::string &id)
{
    std::string out;
    out.reserve(id.size());
    for (char c : id) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                  c == '=';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

SimStatus
simStatusFromName(const std::string &name)
{
    static const SimStatus all[] = {
        SimStatus::Ok,       SimStatus::Fatal,
        SimStatus::Panic,    SimStatus::Hang,
        SimStatus::Diverged, SimStatus::Crashed,
        SimStatus::TimedOut,
    };
    for (SimStatus s : all)
        if (simStatusName(s) == name)
            return s;
    fatal("unknown run status '" + name + "' in bundle/journal");
}

std::string
resultToJson(const SimResult &r)
{
    Obj o;
    o.field("workload", str(r.workload))
        .field("technique", str(techniqueName(r.technique)))
        .field("status", str(simStatusName(r.status)))
        .field("status_message", str(r.status_message))
        .field("core", jsonOf(r.core))
        .field("mem", jsonOf(r.mem))
        .field("mlp", f64(r.mlp));
    // Process-isolation fields: written only when set so journals and
    // bundles from thread-mode sweeps stay byte-identical to before.
    if (r.term_signal)
        o.field("term_signal", u64(uint64_t(r.term_signal)));
    if (r.rss_peak_kb)
        o.field("rss_peak_kb", u64(r.rss_peak_kb));
    if (r.pre)
        o.field("pre", jsonOf(*r.pre));
    if (r.vr)
        o.field("vr", jsonOf(*r.vr));
    if (r.dvr)
        o.field("dvr", jsonOf(*r.dvr));
    if (r.digest)
        o.field("digest", digestRecordToJson(*r.digest));
    // Sampled runs only (only-when-set keeps pre-sampling journals
    // and bundles byte-identical).
    if (r.sample)
        o.field("sample", jsonOf(*r.sample));
    return o.done();
}

SimResult
resultFromJson(const std::string &what, const std::string &text)
{
    return resultFromJsonValue(JsonValue::parse(what, text));
}

std::string
pointToJson(const RunPoint &p)
{
    Obj o;
    o.field("spec", str(p.spec))
        .field("technique", str(techniqueName(p.technique)))
        .field("column", str(p.column))
        .field("variant", str(p.variant));
    if (p.features)
        o.field("features", jsonOf(*p.features));
    o.field("cfg", jsonOf(p.cfg))
        .field("gscale", jsonOf(p.gscale))
        .field("hscale", jsonOf(p.hscale))
        .field("max_insts", u64(p.max_insts))
        .field("warmup", u64(p.warmup));
    // Only-when-set: points without a sampling plan keep their
    // pre-sampling serialization (and plan fingerprints) unchanged.
    if (p.sampling.enabled())
        o.field("sampling", jsonOf(p.sampling));
    // "inject_fail" is redundant with the kind but kept, so bundles
    // and plan fingerprints stay byte-identical.
    const bool inject = p.inject_kind != InjectKind::None;
    o.field("inject_fail", boolean(inject));
    if (inject) {
        o.field("inject_kind", str(injectKindName(p.inject_kind)));
        if (p.inject_arg)
            o.field("inject_arg", u64(p.inject_arg));
    }
    return o.done();
}

std::string
digestRecordToJson(const DigestRecord &d)
{
    std::string iv = "[";
    for (size_t i = 0; i < d.intervals.size(); i++) {
        if (i)
            iv += ",";
        iv += hex64(d.intervals[i]);
    }
    iv += "]";
    return Obj{}
        .field("interval", u64(d.interval))
        .field("instructions", u64(d.instructions))
        .field("final_digest", hex64(d.final_digest))
        .field("intervals", iv)
        .done();
}

RunPoint
pointFromJson(const std::string &what, const std::string &text)
{
    return pointFromJsonValue(JsonValue::parse(what, text));
}

std::string
bundleToJson(const ReproBundle &b)
{
    Obj o;
    o.field("vrsim_repro", u64(1))
        .field("id", str(b.point.id()))
        .field("status", str(simStatusName(b.status)))
        .field("status_message", str(b.status_message))
        .field("point", pointToJson(b.point));
    if (b.baseline_digest)
        o.field("baseline_digest", digestRecordToJson(*b.baseline_digest));
    if (b.divergence)
        o.field("divergence", divergenceToJson(*b.divergence));
    return o.done();
}

ReproBundle
bundleFromJson(const std::string &what, const std::string &text)
{
    JsonValue v = JsonValue::parse(what, text);
    if (v.at("vrsim_repro").asU64() != 1)
        fatal(what + ": unsupported repro-bundle version");
    ReproBundle b;
    b.status = simStatusFromName(v.at("status").asString());
    b.status_message = v.at("status_message").asString();
    b.point = pointFromJsonValue(v.at("point"));
    if (const JsonValue *d = v.find("baseline_digest"))
        b.baseline_digest = digestFromJson(*d);
    if (const JsonValue *d = v.find("divergence"))
        b.divergence = divergenceFromJson(*d);
    return b;
}

std::string
writeReproBundle(const std::string &dir, const ReproBundle &b)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cannot create repro directory '" + dir +
              "': " + ec.message());
    const std::string path =
        dir + "/" + sanitizeForFilename(b.point.id()) + ".json";
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        fatal("cannot write repro bundle '" + path + "'");
    os << bundleToJson(b) << "\n";
    os.flush();
    if (!os)
        fatal("error writing repro bundle '" + path + "'");
    return path;
}

ReproBundle
readReproBundle(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read repro bundle '" + path + "'");
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return bundleFromJson(path, text);
}

uint64_t
planFingerprint(const std::vector<RunPoint> &points)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const RunPoint &p : points) {
        h = fnv1aStr(h, pointToJson(p));
        h = fnv1aStr(h, "\n");
    }
    return h;
}

std::string
journalHeaderLine(uint64_t fingerprint, size_t points)
{
    return Obj{}
        .field("vrsim_journal", u64(1))
        .field("fingerprint", hex64(fingerprint))
        .field("points", u64(points))
        .done();
}

std::string
journalEntryLine(size_t index, const RunPoint &point,
                 const SimResult &result)
{
    return Obj{}
        .field("index", u64(index))
        .field("id", str(point.id()))
        .field("result", resultToJson(result))
        .done();
}

std::vector<std::optional<SimResult>>
loadJournal(const std::string &path, uint64_t fingerprint,
            size_t points)
{
    std::vector<std::optional<SimResult>> slots(points);
    std::ifstream is(path);
    if (!is)
        return slots;

    std::string line;
    if (!std::getline(is, line))
        return slots;   // empty file: nothing to resume
    JsonValue header = JsonValue::parse(path + " (header)", line);
    if (header.at("vrsim_journal").asU64() != 1)
        fatal(path + ": unsupported journal version");
    if (hexFromJson(header.at("fingerprint")) != fingerprint ||
        header.at("points").asU64() != points)
        fatal(path + ": journal was written for a different plan "
              "(fingerprint/point-count mismatch); refusing to mix "
              "results — delete it or pass a fresh --checkpoint path");

    size_t lineno = 1;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonValue v;
        try {
            v = JsonValue::parse(
                path + ":" + std::to_string(lineno), line);
        } catch (const FatalError &e) {
            // A torn tail means the previous run died mid-append;
            // everything before it is still good.
            warn(path + ": ignoring malformed journal tail at line " +
                 std::to_string(lineno) + " (" + e.what() + ")");
            break;
        }
        size_t index = size_t(v.at("index").asU64());
        if (index >= points)
            fatal(path + ":" + std::to_string(lineno) +
                  ": journal entry index " + std::to_string(index) +
                  " out of range for " + std::to_string(points) +
                  " points");
        slots[index] = resultFromJsonValue(v.at("result"));
    }
    return slots;
}

} // namespace vrsim
