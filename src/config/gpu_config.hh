/**
 * @file
 * Simulator configuration: the Table II parameter set plus the design
 * knobs studied in the paper (scheduler choice, sub-core count,
 * collector-unit scaling, assignment hashing, RBA score staleness).
 *
 * The SM is modeled as a set of identical *issue clusters*; a cluster
 * owns schedulers, register-file banks, collector units and execution
 * pipes.  A partitioned Volta SM is 4 clusters of {1 scheduler, 2
 * banks, 2 CUs}; the hypothetical fully-connected SM is 1 cluster of
 * {4 schedulers, 8 banks, 8 CUs} — identical totals, shared freely.
 */

#ifndef SCSIM_CONFIG_GPU_CONFIG_HH
#define SCSIM_CONFIG_GPU_CONFIG_HH

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/types.hh"

namespace scsim {

/** Warp issue scheduling policy (Section IV-A). */
enum class SchedulerPolicy
{
    LRR,        //!< loose round robin
    GTO,        //!< greedy-then-oldest (paper baseline)
    RBA,        //!< register-bank-aware: min {score, ~age}
};

/** Warp -> sub-core assignment policy (Section IV-B). */
enum class AssignPolicy
{
    RoundRobin, //!< hardware baseline
    SRR,        //!< skewed round robin, eq. (1)
    Shuffle,    //!< random, per-sub-core counts within +/-1
    HashSRR,    //!< SRR realized through the Fig 7 hash-table engine
    HashShuffle,//!< random permutations programmed into the hash table
};

/** One row of a policy table: the enum value, its configuration name
 *  and the line `scsim_cli list-policies` prints for it. */
template <class P>
struct PolicyInfo
{
    P policy;
    const char *name;
    const char *description;
};

/** Every scheduler policy, one row per enum value in enum order.
 *  Adding a policy is an enum value, a row here and a case in
 *  makeScheduler()'s switch. */
inline constexpr PolicyInfo<SchedulerPolicy> kSchedulerPolicies[] = {
    { SchedulerPolicy::LRR, "LRR", "loose round robin" },
    { SchedulerPolicy::GTO, "GTO", "greedy-then-oldest (paper baseline)" },
    { SchedulerPolicy::RBA, "RBA",
      "register-bank-aware: min bank score, oldest ties" },
};

/** Every assignment policy, likewise (cases in makeAssigner()). */
inline constexpr PolicyInfo<AssignPolicy> kAssignPolicies[] = {
    { AssignPolicy::RoundRobin, "RR",
      "round robin: subcore = W mod N (hardware baseline)" },
    { AssignPolicy::SRR, "SRR",
      "skewed round robin: (W + floor(W/N)) mod N" },
    { AssignPolicy::Shuffle, "Shuffle",
      "random permutation per group of N warps" },
    { AssignPolicy::HashSRR, "HashSRR",
      "Fig 7 hash-table engine, SRR program" },
    { AssignPolicy::HashShuffle, "HashShuffle",
      "Fig 7 hash-table engine, random program" },
};

template <class P, std::size_t N>
constexpr bool
rowsInEnumOrder(const PolicyInfo<P> (&table)[N])
{
    for (std::size_t i = 0; i < N; ++i)
        if (static_cast<std::size_t>(table[i].policy) != i)
            return false;
    return true;
}
static_assert(rowsInEnumOrder(kSchedulerPolicies));
static_assert(rowsInEnumOrder(kAssignPolicies));

const char *toString(SchedulerPolicy p);
const char *toString(AssignPolicy p);

/**
 * A field value as the job key and the job wire record write it:
 * integers in decimal, doubles as `%.17g` (which round-trips), bools
 * as 0/1 and policies by name.
 */
std::string fieldText(int v);
std::string fieldText(std::uint32_t v);
std::string fieldText(std::uint64_t v);
std::string fieldText(double v);
std::string fieldText(bool v);
std::string fieldText(SchedulerPolicy v);
std::string fieldText(AssignPolicy v);

/**
 * Parse the whole of @p text as one field value into @p out; false
 * (and @p out untouched) on garbage.  An unsigned field refuses a
 * leading '-', which stream extraction would wrap around; a bool
 * takes 1/true/on or 0/false/off.
 */
bool parseFieldText(const std::string &text, int &out);
bool parseFieldText(const std::string &text, std::uint32_t &out);
bool parseFieldText(const std::string &text, std::uint64_t &out);
bool parseFieldText(const std::string &text, double &out);
bool parseFieldText(const std::string &text, bool &out);

/** Full simulator configuration.  Defaults reproduce Table II. */
struct GpuConfig
{
    // ---- chip topology ----------------------------------------------
    int numSms = 80;
    int schedulersPerSm = 4;
    /** Issue clusters per SM; 1 == fully-connected / monolithic. */
    int subCores = 4;

    // ---- per-SM issue resources (divided among clusters) ------------
    int rfBanksPerSm = 8;          //!< 2 per sub-core in Volta
    int collectorUnitsPerSm = 8;   //!< 2 per sub-core in Volta
    int maxWarpsPerSm = 64;
    int maxWarpsPerScheduler = 16;
    int maxBlocksPerSm = 32;
    std::uint32_t regFileBytesPerSm = 4 * 64 * 1024;
    std::uint32_t smemBytesPerSm = 96 * 1024;

    // ---- scheduling policies ----------------------------------------
    SchedulerPolicy scheduler = SchedulerPolicy::GTO;
    AssignPolicy assign = AssignPolicy::RoundRobin;
    /** Entries in the Fig 7 hash-function table (4 or 16). */
    int hashTableEntries = 4;
    /** Staleness of bank-queue lengths seen by RBA, in cycles. */
    int rbaScoreLatency = 0;
    /** Enable the bank-stealing comparison model [36]. */
    bool bankStealing = false;
    /** Idealized warp-migration oracle (Sec. VII): a sub-core with no
     *  runnable warp may steal one from a loaded sibling at zero cost
     *  (register state teleports).  An upper bound on what any
     *  work-stealing hardware could achieve — not a real design. */
    bool idealWarpMigration = false;

    // ---- execution pipes (per scheduler's share) ---------------------
    /** Warp instructions one scheduler may issue per cycle (Kepler: 2). */
    int issueWidthPerScheduler = 1;
    /** Monolithic (pre-Maxwell) SMs issue from one shared warp pool:
     *  every scheduler slot may pick any ready warp in the cluster. */
    bool sharedWarpPool = false;
    int spPipesPerScheduler = 1;
    int spInitiation = 2;          //!< 16-wide FP32 -> 2 cycles / warp
    int spLatency = 4;
    int sfuPipesPerScheduler = 1;
    int sfuInitiation = 8;
    int sfuLatency = 20;
    int tensorPipesPerScheduler = 1;
    int tensorInitiation = 4;
    int tensorLatency = 16;
    int ldstPipesPerScheduler = 1;
    int ldstInitiation = 1;

    // ---- memory system ------------------------------------------------
    std::uint32_t l1Bytes = 128 * 1024;
    int l1Ways = 8;
    int l1LineBytes = 128;
    int l1HitLatency = 28;
    int l1PortsPerSm = 4;          //!< LDST accesses accepted / cycle
    std::uint32_t l2Bytes = 6 * 1024 * 1024;
    int l2Ways = 24;
    int l2HitLatency = 190;
    int dramLatency = 330;
    /** Sectors (32B) of L2 bandwidth per cycle, per SM (autoscales). */
    double l2SectorsPerCyclePerSm = 0.70;
    /** Sectors (32B) of DRAM bandwidth per cycle, per SM. */
    double dramSectorsPerCyclePerSm = 0.25;
    int smemLatency = 24;

    // ---- simulation control -------------------------------------------
    /** Cycle budget; exceeding it throws HangError.  0 = unlimited. */
    std::uint64_t maxCycles = 200'000'000;
    /**
     * Forward-progress watchdog: if the simulation retires nothing
     * (no issue, no writeback, no warp/block completion) for this
     * many consecutive cycles, it is declared hung and HangError is
     * thrown with a machine-state diagnostic.  0 = disabled.  The
     * default is far beyond any legitimate stall (the longest
     * memory round-trip is ~10^3 cycles).
     */
    std::uint64_t hangWindowCycles = 1'000'000;
    bool enableIdleSkip = true;
    std::uint64_t seed = 1;
    bool rfTraceEnable = false;    //!< collect the Fig 14 time series
    Cycle rfTraceWindow = 512;

    // ---- derived helpers ----------------------------------------------
    int clusterCount() const { return subCores; }
    int schedulersPerCluster() const { return schedulersPerSm / subCores; }
    int banksPerCluster() const { return rfBanksPerSm / subCores; }
    int cusPerCluster() const { return collectorUnitsPerSm / subCores; }
    std::uint32_t
    regFileBytesPerCluster() const
    {
        return regFileBytesPerSm / static_cast<std::uint32_t>(subCores);
    }

    /** Throws ConfigError on an inconsistent configuration. */
    void validate() const;

    /**
     * Apply one "key=value" override; throws ConfigError on unknown
     * key or unparsable value.  Keys use the field names above.
     */
    void set(const std::string &key, const std::string &value);

    /** Parse a whole file of '#'-commented key=value lines. */
    void loadFile(const std::string &path);

    // ---- presets --------------------------------------------------------
    /** Table II Volta V100: 4 sub-cores, 2 banks + 2 CUs each, GTO+RR. */
    static GpuConfig volta();
    /** Same totals as volta() but one fully-connected cluster. */
    static GpuConfig voltaFullyConnected();
    /** Kepler-like monolithic SMX: shared pipes, deeper FMA latency. */
    static GpuConfig keplerLike();
    /** Ampere A100-like: Volta sub-core layout, 108 SMs. */
    static GpuConfig a100Like();
};

/**
 * Every GpuConfig field in declaration order, as f(name, field): the
 * one list that GpuConfig::set(), the job key's canonical text and
 * the job wire record iterate.  gpu_config.cc checks that it has a
 * row for each member the struct declares.
 */
template <class C, class F>
    requires std::same_as<std::remove_const_t<C>, GpuConfig>
constexpr void
forEachField(C &c, F &&f)
{
    f("numSms", c.numSms);
    f("schedulersPerSm", c.schedulersPerSm);
    f("subCores", c.subCores);
    f("rfBanksPerSm", c.rfBanksPerSm);
    f("collectorUnitsPerSm", c.collectorUnitsPerSm);
    f("maxWarpsPerSm", c.maxWarpsPerSm);
    f("maxWarpsPerScheduler", c.maxWarpsPerScheduler);
    f("maxBlocksPerSm", c.maxBlocksPerSm);
    f("regFileBytesPerSm", c.regFileBytesPerSm);
    f("smemBytesPerSm", c.smemBytesPerSm);
    f("scheduler", c.scheduler);
    f("assign", c.assign);
    f("hashTableEntries", c.hashTableEntries);
    f("rbaScoreLatency", c.rbaScoreLatency);
    f("bankStealing", c.bankStealing);
    f("idealWarpMigration", c.idealWarpMigration);
    f("issueWidthPerScheduler", c.issueWidthPerScheduler);
    f("sharedWarpPool", c.sharedWarpPool);
    f("spPipesPerScheduler", c.spPipesPerScheduler);
    f("spInitiation", c.spInitiation);
    f("spLatency", c.spLatency);
    f("sfuPipesPerScheduler", c.sfuPipesPerScheduler);
    f("sfuInitiation", c.sfuInitiation);
    f("sfuLatency", c.sfuLatency);
    f("tensorPipesPerScheduler", c.tensorPipesPerScheduler);
    f("tensorInitiation", c.tensorInitiation);
    f("tensorLatency", c.tensorLatency);
    f("ldstPipesPerScheduler", c.ldstPipesPerScheduler);
    f("ldstInitiation", c.ldstInitiation);
    f("l1Bytes", c.l1Bytes);
    f("l1Ways", c.l1Ways);
    f("l1LineBytes", c.l1LineBytes);
    f("l1HitLatency", c.l1HitLatency);
    f("l1PortsPerSm", c.l1PortsPerSm);
    f("l2Bytes", c.l2Bytes);
    f("l2Ways", c.l2Ways);
    f("l2HitLatency", c.l2HitLatency);
    f("dramLatency", c.dramLatency);
    f("l2SectorsPerCyclePerSm", c.l2SectorsPerCyclePerSm);
    f("dramSectorsPerCyclePerSm", c.dramSectorsPerCyclePerSm);
    f("smemLatency", c.smemLatency);
    f("maxCycles", c.maxCycles);
    f("hangWindowCycles", c.hangWindowCycles);
    f("enableIdleSkip", c.enableIdleSkip);
    f("seed", c.seed);
    f("rfTraceEnable", c.rfTraceEnable);
    f("rfTraceWindow", c.rfTraceWindow);
}

} // namespace scsim

#endif // SCSIM_CONFIG_GPU_CONFIG_HH
