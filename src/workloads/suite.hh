/**
 * @file
 * Synthetic application suite.
 *
 * Substitutes the paper's 112 applications from 8 benchmark suites
 * with parameterized synthetic kernels.  Each AppSpec captures the
 * warp-level structure that drives the studied effects:
 *
 *  - instruction mix and operand patterns  -> register bank pressure
 *  - dependence distance (ILP)             -> issue pressure
 *  - per-warp-slot length pattern          -> inter-warp divergence
 *    (TPC-H: one long-running warp every four; compressed queries add
 *    a heavily warp-specialized decompression kernel)
 *  - memory intensity / coalescing / footprint -> memory boundedness
 *
 * See DESIGN.md for the substitution rationale.
 */

#ifndef SCSIM_WORKLOADS_SUITE_HH
#define SCSIM_WORKLOADS_SUITE_HH

#include <concepts>
#include <string>
#include <type_traits>
#include <vector>

#include "trace/kernel.hh"

namespace scsim {

struct AppSpec
{
    std::string name;
    std::string suite;

    // ---- launch geometry ----------------------------------------------
    int numBlocks = 64;
    int warpsPerBlock = 8;
    int regsPerThread = 32;
    std::uint32_t smemBytesPerBlock = 0;
    int numKernels = 1;

    // ---- per-warp work ---------------------------------------------------
    int baseInsts = 600;          //!< instructions per short warp
    double fmaFrac = 0.45;
    double sfuFrac = 0.0;
    double tensorFrac = 0.0;
    double memFrac = 0.12;        //!< remainder is integer ALU
    double storeFrac = 0.25;      //!< stores, as a fraction of memFrac

    // ---- register pressure ----------------------------------------------
    int ilp = 4;                  //!< independent accumulator chains
    int regWindow = 16;           //!< live register window
    double conflictBias = 0.3;    //!< P(source operands share a bank)
    /** P(first source is the current phase's "hot" register) — models
     *  kernels that re-read a few registers constantly (cuGraph),
     *  which more banks cannot help but smarter scheduling can. */
    double hotRegFrac = 0.0;

    // ---- inter-warp divergence -------------------------------------------
    /** Length multiplier per warp slot, cycled across the block. */
    std::vector<double> divPattern { 1.0 };
    double divNoise = 0.05;       //!< relative jitter on warp lengths
    /** Fraction of kernels that follow divPattern (rest balanced). */
    double divKernelFrac = 1.0;

    // ---- memory behaviour --------------------------------------------------
    int sectors = 4;              //!< 32B transactions per warp access
    std::uint64_t footprintMB = 64;
    bool randomMem = false;
};

/**
 * Every AppSpec field in declaration order, as f(name, field): the one
 * list that the job key's canonical text and the job wire record
 * (both directions) iterate.  suite.cc checks that it has a row for
 * each member the struct declares.
 */
template <class A, class F>
    requires std::same_as<std::remove_const_t<A>, AppSpec>
constexpr void
forEachField(A &a, F &&f)
{
    f("name", a.name);
    f("suite", a.suite);
    f("numBlocks", a.numBlocks);
    f("warpsPerBlock", a.warpsPerBlock);
    f("regsPerThread", a.regsPerThread);
    f("smemBytesPerBlock", a.smemBytesPerBlock);
    f("numKernels", a.numKernels);
    f("baseInsts", a.baseInsts);
    f("fmaFrac", a.fmaFrac);
    f("sfuFrac", a.sfuFrac);
    f("tensorFrac", a.tensorFrac);
    f("memFrac", a.memFrac);
    f("storeFrac", a.storeFrac);
    f("ilp", a.ilp);
    f("regWindow", a.regWindow);
    f("conflictBias", a.conflictBias);
    f("hotRegFrac", a.hotRegFrac);
    f("divPattern", a.divPattern);
    f("divNoise", a.divNoise);
    f("divKernelFrac", a.divKernelFrac);
    f("sectors", a.sectors);
    f("footprintMB", a.footprintMB);
    f("randomMem", a.randomMem);
}

/** Materialize the synthetic application for @p spec. */
Application buildApp(const AppSpec &spec, std::uint64_t seedSalt = 0);

/**
 * The full 112-application table across all 8 suites.
 * @param scale  multiplies grid sizes (use < 1 for quick runs)
 */
std::vector<AppSpec> standardSuite(double scale = 1.0);

/** Apps from one suite: "tpch-c", "tpch-u", "parboil", "rodinia",
 *  "cugraph", "polybench", "deepbench", "cutlass". */
std::vector<AppSpec> suiteApps(const std::string &suite,
                               double scale = 1.0);

/** The partitioning-sensitive subset highlighted in Table III. */
std::vector<AppSpec> sensitiveApps(double scale = 1.0);

/** Register-file-sensitive subset used by Figs 11, 12 and 14. */
std::vector<AppSpec> rfSensitiveApps(double scale = 1.0);

/** Look up an application by name; fatal if absent. */
AppSpec findApp(const std::string &name, double scale = 1.0);

} // namespace scsim

#endif // SCSIM_WORKLOADS_SUITE_HH
