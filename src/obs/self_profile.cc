#include "obs/self_profile.hh"

#include <cstdio>

namespace vrsim
{

namespace
{

std::atomic<bool> profile_columns{false};

} // namespace

bool
profileColumnsEnabled()
{
    return profile_columns.load(std::memory_order_relaxed);
}

void
setProfileColumns(bool enabled)
{
    profile_columns.store(enabled, std::memory_order_relaxed);
}

SelfProfiler &
SelfProfiler::process()
{
    static SelfProfiler instance;
    return instance;
}

void
SelfProfiler::addPhase(const char *name, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    phases_[name] += seconds;
}

double
SelfProfiler::phaseSeconds(const char *name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = phases_.find(name);
    return it == phases_.end() ? 0.0 : it->second;
}

double
SelfProfiler::instsPerSecond() const
{
    double wall = wallSeconds();
    return wall > 0.0 ? double(insts()) / wall : 0.0;
}

std::string
SelfProfiler::summary() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "self-profile: %llu points, %.2f Minsts in %.2f s "
                  "host (%.2f Minsts/s",
                  (unsigned long long)points(), double(insts()) / 1e6,
                  wallSeconds(), instsPerSecond() / 1e6);
    std::string out = buf;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &kv : phases_) {
            std::snprintf(buf, sizeof(buf), "; %s %.2f s",
                          kv.first.c_str(), kv.second);
            out += buf;
        }
    }
    out += ")";
    return out;
}

void
SelfProfiler::reset()
{
    start_ = Clock::now();
    insts_.store(0);
    cycles_.store(0);
    points_.store(0);
    std::lock_guard<std::mutex> lock(mutex_);
    phases_.clear();
}

} // namespace vrsim
