/**
 * @file
 * Lightweight statistics primitives: counters, running mean/variance
 * accumulators, and fixed-bucket histograms. These back every
 * experiment table in the bench harness.
 */

#ifndef EQX_COMMON_STATS_HH
#define EQX_COMMON_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eqx {

/**
 * Streaming mean/variance via Welford's algorithm. Numerically stable
 * for the long accumulations a multi-million-cycle run produces.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator (parallel reduction). */
    void merge(const RunningStat &o);

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance. */
    double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    /**
     * Exact running sum (carried separately; reconstructing it as
     * mean * n loses low-order bits over long accumulations, which
     * packet-weighted latency aggregation is sensitive to).
     */
    double sum() const { return sum_; }

    void reset();

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Histogram over [0, bucketWidth * numBuckets) with an overflow
 * bucket; used for latency distributions.
 */
class Histogram
{
  public:
    Histogram(double bucket_width, int num_buckets);

    void add(double x);
    std::uint64_t count() const { return total_; }
    std::uint64_t bucket(int i) const;
    std::uint64_t overflow() const { return overflow_; }
    int numBuckets() const { return static_cast<int>(buckets_.size()); }
    double bucketWidth() const { return width_; }
    /**
     * Value below which fraction q of samples fall (linear interp).
     * Empty histograms report 0; quantiles that land in the overflow
     * bucket report the tracked-range upper edge (the tightest lower
     * bound the histogram knows).
     */
    double percentile(double q) const;

    /** Clear all buckets (same geometry); warmup-phase reset. */
    void reset();
    /** Merge a histogram of identical geometry. */
    void merge(const Histogram &o);

  private:
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * A named bag of scalar statistics; components register counters here
 * and the experiment runner dumps them uniformly.
 */
class StatGroup
{
  public:
    /** Increment a named counter. */
    void inc(const std::string &name, double delta = 1.0);
    /** Set a named value outright. */
    void set(const std::string &name, double value);
    /** Read a named value (0 if absent). */
    double get(const std::string &name) const;
    bool has(const std::string &name) const;

    const std::map<std::string, double> &all() const { return values_; }
    void merge(const StatGroup &o);
    void reset() { values_.clear(); }

  private:
    std::map<std::string, double> values_;
};

/**
 * Event counters indexed by an enum, for components that count on
 * their per-cycle path: counting is one array increment. view()
 * renders the non-zero counters into a StatGroup under their names,
 * so a reader sees the same map a StatGroup::inc per event would have
 * built.
 *
 * @tparam Id enum class numbering the counters from 0, with a final
 *            Count enumerator.
 */
template <typename Id>
class CounterArray
{
  public:
    static constexpr std::size_t kSize =
        static_cast<std::size_t>(Id::Count);

    /** @p names gives each counter's name, in enum order. */
    template <std::size_t N>
    explicit CounterArray(const char *const (&names)[N]) : names_(names)
    {
        static_assert(N == kSize, "one name per counter");
    }

    void inc(Id id) { ++counts_[static_cast<std::size_t>(id)]; }
    void
    add(Id id, std::uint64_t n)
    {
        counts_[static_cast<std::size_t>(id)] += n;
    }

    std::uint64_t
    operator[](Id id) const
    {
        return counts_[static_cast<std::size_t>(id)];
    }

    /** The non-zero counters by name, refreshed on every call. */
    const StatGroup &
    view() const
    {
        view_.reset();
        for (std::size_t i = 0; i < kSize; ++i)
            if (counts_[i] != 0)
                view_.set(names_[i], static_cast<double>(counts_[i]));
        return view_;
    }

  private:
    const char *const *names_;
    std::array<std::uint64_t, kSize> counts_{};
    mutable StatGroup view_;
};

/** Geometric mean of a vector (ignores non-positive entries). */
double geomean(const std::vector<double> &xs);

} // namespace eqx

#endif // EQX_COMMON_STATS_HH
