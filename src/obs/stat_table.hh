/**
 * @file
 * Field tables for the plain statistics records (CoreStats, MemStats,
 * PreStats, VrStats, DvrStats, SampleSummary). A record derives from
 * StatRecord<Record> and lists each member once, as a row of its
 * static `fields` tuple: journal key, registry path (or none),
 * description, member pointer. Field-wise addition, warmup exclusion,
 * the registry counters and the journal/bundle JSON (driver/repro.cc)
 * all derive from that table, and each header asserts that the table
 * covers every byte of the record, so a new member without a row
 * fails the build instead of silently missing a writer. Derived nodes
 * (ratios, the CPI stack) stay hand-written in registerIn().
 */

#ifndef VRSIM_OBS_STAT_TABLE_HH
#define VRSIM_OBS_STAT_TABLE_HH

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>

#include "obs/stats_registry.hh"

namespace vrsim
{

/** A fixed vector of counters (MemStats::dram_by_requester). */
using StatVec = std::array<uint64_t, 4>;

/** One row of a record's field table. */
template <class T, class M>
struct StatField
{
    using Member = M;

    const char *key;   //!< journal/bundle JSON key
    const char *path;  //!< registry counter path, or nullptr
    const char *desc;
    M T::*member;
};

/** A counter row; a null @p path keeps it out of the registry. */
template <class T>
constexpr StatField<T, uint64_t>
stat(const char *key, const char *path, const char *desc,
     uint64_t T::*member)
{
    return {key, path, desc, member};
}

/** A journal-only row of another member type (double, StatVec). */
template <class T, class M>
constexpr StatField<T, M>
stat(const char *key, const char *desc, M T::*member)
{
    return {key, nullptr, desc, member};
}

/** Call @p fn on every row of T::fields, in table order. */
template <class T, class Fn>
constexpr void
forEachStat(Fn &&fn)
{
    std::apply([&](const auto &...f) { (fn(f), ...); }, T::fields);
}

/** Bytes T's table covers: each header asserts it is sizeof(T). */
template <class T>
constexpr size_t
statTableBytes()
{
    size_t n = 0;
    forEachStat<T>([&](const auto &f) {
        n += sizeof(typename std::decay_t<decltype(f)>::Member);
    });
    return n;
}

/** Whole-record operations derived from T::fields (CRTP base). */
template <class T>
struct StatRecord
{
    /** Field-wise sum: folds one measured segment into a total. */
    T &
    operator+=(const T &o)
    {
        zip(self(), o, [](const char *, auto &x, auto y) { x += y; });
        return self();
    }

    /**
     * Field-wise difference from the earlier snapshot @p w (warmup
     * exclusion). With @p check set (cfg.invariant_checks), a counter
     * that regressed panics instead of wrapping to a bogus value.
     */
    T
    since(const T &w, bool check = false) const
    {
        T d = self();
        zip(d, w, [check](const char *key, auto &x, auto y) {
            if (check && x < y)
                panic(std::string(key) + " regressed across the warmup "
                      "boundary (subtraction would underflow)");
            x -= y;
        });
        return d;
    }

    /** Register every row that has a path as a Counter in @p reg. */
    void
    registerIn(StatsRegistry &reg) const
    {
        forEachStat<T>([&](const auto &f) {
            using M = typename std::decay_t<decltype(f)>::Member;
            if constexpr (std::is_same_v<M, uint64_t>)
                if (f.path)
                    reg.addCounter(f.path, f.desc) += self().*f.member;
        });
    }

  private:
    T &self() { return static_cast<T &>(*this); }
    const T &self() const { return static_cast<const T &>(*this); }

    /** fn(key, a's scalar, b's scalar) for every scalar of a record. */
    template <class Fn>
    static void
    zip(T &a, const T &b, Fn fn)
    {
        forEachStat<T>([&](const auto &f) {
            if constexpr (std::is_same_v<decltype(a.*f.member), StatVec &>) {
                for (size_t i = 0; i < StatVec{}.size(); i++)
                    fn(f.key, (a.*f.member)[i], (b.*f.member)[i]);
            } else {
                fn(f.key, a.*f.member, b.*f.member);
            }
        });
    }
};

} // namespace vrsim

#endif // VRSIM_OBS_STAT_TABLE_HH
