/**
 * @file
 * Statistics primitives: scalar accumulators, distributions,
 * time series samplers, and summary math used by the bench harness
 * (means, geometric means, coefficient of variation).
 */

#ifndef SCSIM_STATS_STATS_HH
#define SCSIM_STATS_STATS_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace scsim {

/**
 * Streaming accumulator for a sampled quantity.  Tracks count, sum,
 * min, max and the second moment (Welford) so mean / stddev / cov are
 * O(1) to read at any point.
 */
class Distribution
{
  public:
    void add(double x);
    void merge(const Distribution &other);
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double variance() const;
    double stddev() const;
    /** Coefficient of variation sigma/mu; 0 when mean is 0. */
    double cov() const;
    double min() const { return min_; }
    double max() const { return max_; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-window time series: accumulates a per-cycle quantity and emits
 * one averaged sample per window.  Used for the Fig 14 register-file
 * reads/cycle traces.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(Cycle window = 1024) : window_(window) {}

    /** Add @p amount at absolute cycle @p now. */
    void add(Cycle now, double amount);

    /** Flush the partially filled trailing window. */
    void finalize(Cycle now);

    /**
     * Append @p other's completed samples after this series' own,
     * i.e. concatenate two finalized traces of consecutive run
     * segments recorded with the same window.
     */
    void merge(const TimeSeries &other);

    /** Replace the sample vector (result-cache deserialization). */
    void restoreSamples(std::vector<double> samples);

    /**
     * Restore full mid-run sampler state (snapshot restore): the
     * completed samples plus the partially accumulated trailing
     * window, exactly as read back through curWindowStart()/curSum().
     */
    void restoreState(std::vector<double> samples, Cycle curWindowStart,
                      double curSum);

    Cycle window() const { return window_; }
    const std::vector<double> &samples() const { return samples_; }

    /** Start cycle of the partially filled window (checkpointing). */
    Cycle curWindowStart() const { return curWindowStart_; }

    /** Accumulated sum of the partially filled window. */
    double curSum() const { return curSum_; }

    /** Average over all completed samples. */
    double average() const;

  private:
    void rollTo(Cycle now);

    Cycle window_;
    Cycle curWindowStart_ = 0;
    double curSum_ = 0.0;
    std::vector<double> samples_;
};

/** Arithmetic mean of a span; 0 for empty input. */
double mean(std::span<const double> xs);

/** Geometric mean of a span of positive values; 0 for empty input. */
double geomean(std::span<const double> xs);

/** Coefficient of variation (population) of a span. */
double coefficientOfVariation(std::span<const double> xs);

/**
 * End-of-run summary emitted by GpuSim.  Plain data so every layer can
 * fill in its slice without coupling to simulator internals.
 */
struct SimStats
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;   //!< warp instructions issued
    std::uint64_t threadInstructions = 0;

    /** Instructions issued per scheduler, indexed [sm][scheduler]. */
    std::vector<std::vector<std::uint64_t>> issuePerScheduler;

    // Per-scheduler-cycle issue outcome breakdown.
    std::uint64_t schedCycles = 0;       //!< scheduler-cycles observed
    std::uint64_t issueSlotsUsed = 0;    //!< instructions issued
    std::uint64_t stallNoWarp = 0;       //!< no schedulable warp at all
    std::uint64_t stallScoreboard = 0;   //!< data hazard on every warp
    std::uint64_t stallNoCu = 0;         //!< ready warp, collector full
    std::uint64_t cuTurnaroundSum = 0;   //!< cycles CU held per dispatch
    std::uint64_t cuDispatches = 0;

    std::uint64_t rfReads = 0;        //!< 4-byte register reads
    std::uint64_t rfWrites = 0;
    std::uint64_t rfBankConflictCycles = 0;
    std::uint64_t collectorFullStalls = 0;
    std::uint64_t execStructuralStalls = 0;

    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;

    std::uint64_t blocksCompleted = 0;
    std::uint64_t warpsCompleted = 0;
    std::uint64_t assignSpills = 0;   //!< warps redirected on full sub-core

    /** Fig 14 trace: aggregated RF reads/cycle on SM 0. */
    TimeSeries rfReadTrace { 512 };

    /** Per-kernel wall-cycle spans for sequential runs. */
    std::vector<std::pair<std::string, Cycle>> kernelSpans;

    std::uint64_t warpMigrations = 0;   //!< ideal-migration oracle

    double ipc() const;

    /**
     * Coefficient of variation of per-scheduler issued instructions,
     * averaged over SMs that issued anything (Fig 17 metric).
     */
    double issueCov() const;

    /**
     * Fold @p other into this record with run-concatenation
     * semantics: counters sum, cycles accumulate as if @p other's
     * kernels ran back-to-back after ours, the per-scheduler issue
     * matrix adds element-wise (growing to cover the larger shape),
     * kernel spans append, and the RF read trace concatenates.
     * Merging shards of a partitioned run therefore reproduces the
     * single-pass accumulation GpuSim performs itself.
     */
    void merge(const SimStats &other);
};

/**
 * Every plain counter of SimStats, in stats-payload order: the one list
 * that the payload codec (stats_io.cc) and SimStats::merge() iterate.
 * The issue matrix, kernel spans and RF trace are coded by hand.
 */
inline constexpr std::pair<const char *, std::uint64_t SimStats::*>
    kStatsCounters[] = {
        { "cycles", &SimStats::cycles },
        { "instructions", &SimStats::instructions },
        { "threadInstructions", &SimStats::threadInstructions },
        { "schedCycles", &SimStats::schedCycles },
        { "issueSlotsUsed", &SimStats::issueSlotsUsed },
        { "stallNoWarp", &SimStats::stallNoWarp },
        { "stallScoreboard", &SimStats::stallScoreboard },
        { "stallNoCu", &SimStats::stallNoCu },
        { "cuTurnaroundSum", &SimStats::cuTurnaroundSum },
        { "cuDispatches", &SimStats::cuDispatches },
        { "rfReads", &SimStats::rfReads },
        { "rfWrites", &SimStats::rfWrites },
        { "rfBankConflictCycles", &SimStats::rfBankConflictCycles },
        { "collectorFullStalls", &SimStats::collectorFullStalls },
        { "execStructuralStalls", &SimStats::execStructuralStalls },
        { "l1Accesses", &SimStats::l1Accesses },
        { "l1Misses", &SimStats::l1Misses },
        { "l2Accesses", &SimStats::l2Accesses },
        { "l2Misses", &SimStats::l2Misses },
        { "blocksCompleted", &SimStats::blocksCompleted },
        { "warpsCompleted", &SimStats::warpsCompleted },
        { "assignSpills", &SimStats::assignSpills },
        { "warpMigrations", &SimStats::warpMigrations },
    };

} // namespace scsim

#endif // SCSIM_STATS_STATS_HH
