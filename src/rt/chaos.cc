#include "rt/chaos.hh"

#include <csignal>

#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

namespace vrsim
{

ChaosPolicy::ChaosPolicy(uint64_t seed, double rate)
    : seed_(seed), rate_(rate)
{
    if (!(rate_ >= 0.0 && rate_ <= 1.0))  // NaN fails both
        fatal("--chaos rate " + std::to_string(rate_) +
              " is outside [0, 1]");
}

ChaosPolicy
ChaosPolicy::parse(const std::string &spec)
{
    size_t colon = spec.find(':');
    if (colon == std::string::npos)
        fatal("--chaos expects SEED:RATE (e.g. 7:0.3), got '" + spec +
              "'");
    uint64_t seed =
        parseU64("--chaos seed", spec.substr(0, colon).c_str());
    double rate =
        parseF64("--chaos rate", spec.substr(colon + 1).c_str());
    return ChaosPolicy(seed, rate);
}

std::optional<ChaosFault>
ChaosPolicy::decide(const std::string &point_id, unsigned attempt) const
{
    if (!enabled())
        return std::nullopt;
    // splitmix64 decorrelates the structured (seed, id, attempt)
    // inputs; FNV-1a makes every byte of the id count.
    uint64_t h = splitMix64(seed_ ^ splitMix64(fnv1a(point_id) + attempt));
    // Top 53 bits -> uniform double in [0, 1).
    double u = double(h >> 11) * 0x1.0p-53;
    if (u >= rate_)
        return std::nullopt;
    ChaosFault f;
    switch (splitMix64(h) % 5) {
      case 0:
        f.kind = InjectKind::Segv;
        break;
      case 1:
        f.kind = InjectKind::Oom;
        break;
      case 2:
        f.kind = InjectKind::Spin;
        break;
      case 3:
        f.kind = InjectKind::ExitCode;
        f.arg = 3;
        break;
      default:
        f.kind = InjectKind::KillSelf;
        f.arg = SIGKILL;  // uninterceptable: identical under sanitizers
        break;
    }
    return f;
}

} // namespace vrsim
