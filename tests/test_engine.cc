/**
 * @file
 * Engine & policy-table tests (ctest label `engine`).
 *
 * Covers the policy tables (enum order, every row builds its policy,
 * an unknown name lists the valid ones), the design catalogue, the
 * SimEngine facade (observer hooks, fingerprints), and the golden
 * equivalence matrix: every design point on the micro workloads must
 * produce a SimStats fingerprint byte-identical to the seed behavior
 * captured in tests/goldens/engine_fingerprints.txt.
 */

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/assign.hh"
#include "core/scheduler.hh"
#include "expect_throw.hh"
#include "runner/design.hh"
#include "sim/engine.hh"
#include "workloads/microbench.hh"
#include "workloads/suite.hh"

namespace scsim {
namespace {

using sim::SimEngine;

// ---- policy tables ----------------------------------------------------------

TEST(PolicyRegistries, BuiltinsRegisteredInEnumOrder)
{
    std::vector<std::string> scheds, assigns;
    for (const auto &row : kSchedulerPolicies) {
        scheds.push_back(row.name);
        EXPECT_STREQ(toString(row.policy), row.name);
    }
    for (const auto &row : kAssignPolicies) {
        assigns.push_back(row.name);
        EXPECT_STREQ(toString(row.policy), row.name);
    }
    EXPECT_EQ(scheds, (std::vector<std::string>{ "LRR", "GTO", "RBA" }));
    EXPECT_EQ(assigns, (std::vector<std::string>{ "RR", "SRR", "Shuffle",
                                                  "HashSRR", "HashShuffle" }));
}

TEST(PolicyRegistries, FactoriesBuildTheRegisteredPolicy)
{
    GpuConfig cfg = GpuConfig::volta();
    for (const auto &row : kSchedulerPolicies) {
        cfg.set("scheduler", row.name);
        EXPECT_NE(makeScheduler(cfg), nullptr) << row.name;
    }
    cfg.set("scheduler", "GTO");
    EXPECT_NE(dynamic_cast<GtoScheduler *>(makeScheduler(cfg).get()),
              nullptr);
    for (const auto &row : kAssignPolicies) {
        cfg.set("assign", row.name);
        auto assigner = makeAssigner(cfg, 4, 7);
        ASSERT_NE(assigner, nullptr) << row.name;
        EXPECT_EQ(assigner->numSubcores(), 4);
    }

    cfg.set("assign", "SRR");
    auto assigner = makeAssigner(cfg, 4, 7);
    // SRR: subcore = (W + floor(W/N)) mod N.
    EXPECT_EQ(assigner->nextSubcore(), 0);
    EXPECT_EQ(assigner->nextSubcore(), 1);
    EXPECT_EQ(assigner->nextSubcore(), 2);
    EXPECT_EQ(assigner->nextSubcore(), 3);
    EXPECT_EQ(assigner->nextSubcore(), 1);
}

TEST(PolicyRegistries, UnknownPolicyNameThrowsConfigError)
{
    GpuConfig cfg = GpuConfig::volta();
    EXPECT_THROW_WITH(cfg.set("scheduler", "FIFO"), ConfigError,
                      "unknown scheduler 'FIFO' (valid: LRR, GTO, RBA)");
    EXPECT_THROW_WITH(cfg.set("assign", "Hash"), ConfigError,
                      "unknown assignment policy 'Hash' (valid: RR, SRR, "
                      "Shuffle, HashSRR, HashShuffle)");
    EXPECT_EQ(cfg.scheduler, SchedulerPolicy::GTO);
    EXPECT_EQ(cfg.assign, AssignPolicy::RoundRobin);
}

// ---- design catalogue ------------------------------------------------------

TEST(DesignCatalog, AllDesignsOrderStable)
{
    // The catalogue order is part of the figure / manifest contract:
    // Baseline first, then the paper's Section IV points, then the
    // comparison points.
    std::vector<std::string> names;
    for (const runner::DesignInfo &d : runner::designCatalog())
        names.push_back(d.name);
    EXPECT_EQ(names,
              (std::vector<std::string>{
                  "Baseline", "RBA", "SRR", "Shuffle", "Shuffle+RBA",
                  "Fully-Connected", "FC+RBA", "BankStealing", "4 CUs",
                  "8 CUs", "16 CUs" }));
    EXPECT_EQ(runner::designCatalog().size(), names.size());
}

TEST(DesignCatalog, ParseAcceptsDisplayNamesAndAliases)
{
    EXPECT_STREQ(runner::findDesign("Shuffle+RBA").name, "Shuffle+RBA");
    EXPECT_STREQ(runner::findDesign("ShuffleRBA").name, "Shuffle+RBA");
    EXPECT_STREQ(runner::findDesign("FC").name, "Fully-Connected");
    EXPECT_STREQ(runner::findDesign("FCRBA").name, "FC+RBA");
    EXPECT_STREQ(runner::findDesign("Cus16").name, "16 CUs");
    EXPECT_STREQ(runner::findDesign("16 CUs").name, "16 CUs");
}

TEST(DesignCatalog, ParseUnknownThrowsConfigErrorListingNames)
{
    EXPECT_THROW_WITH(runner::findDesign("Turbo"), ConfigError,
                      "unknown design 'Turbo' (valid: Baseline");
}

TEST(DesignCatalog, OverlaysMatchTheSeedSemantics)
{
    GpuConfig base = GpuConfig::volta();
    GpuConfig rba = runner::designConfig(base, "RBA");
    EXPECT_EQ(rba.scheduler, SchedulerPolicy::RBA);
    EXPECT_EQ(rba.assign, base.assign);

    GpuConfig fc = runner::designConfig(base, "Fully-Connected");
    EXPECT_EQ(fc.subCores, 1);
    EXPECT_EQ(fc.scheduler, base.scheduler);

    GpuConfig cus8 = runner::designConfig(base, "Cus8");
    // CU scaling multiplies against the *base* sub-core count.
    EXPECT_EQ(cus8.collectorUnitsPerSm, 8 * base.subCores);
    EXPECT_EQ(cus8.subCores, base.subCores);

    GpuConfig steal = runner::designConfig(base, "BankStealing");
    EXPECT_TRUE(steal.bankStealing);
}

// ---- SimEngine facade -----------------------------------------------------

KernelDesc
microWorkload(const std::string &name)
{
    if (name == "fma-unbalanced")
        return makeFmaMicro(FmaLayout::Unbalanced, 512, 8);
    if (name == "imbalance:4")
        return makeImbalanceMicro(4.0, 256, 8);
    if (name == "conflict:0")
        return makeConflictMicro(0, 512, 4);
    ADD_FAILURE() << "unknown micro workload " << name;
    return {};
}

GpuConfig
goldenBase()
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 2;
    return cfg;
}

TEST(SimEngine, RejectsInvalidConfigAtConstruction)
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.subCores = 3;   // must divide schedulersPerSm
    EXPECT_THROW(SimEngine{ cfg }, ConfigError);
}

TEST(SimEngine, ObserversFireAroundEachRun)
{
    SimEngine engine(goldenBase());
    int starts = 0, ends = 0;
    std::uint64_t seenCycles = 0;
    sim::EngineObserver obs;
    obs.onRunStart = [&](const GpuConfig &cfg, const Application &app) {
        ++starts;
        EXPECT_EQ(cfg.numSms, 2);
        EXPECT_FALSE(app.kernels.empty());
    };
    obs.onRunEnd = [&](const Application &, const SimStats &s) {
        ++ends;
        seenCycles = s.cycles;
    };
    engine.addObserver(std::move(obs));

    SimStats s = engine.run(microWorkload("conflict:0"));
    EXPECT_EQ(starts, 1);
    EXPECT_EQ(ends, 1);
    EXPECT_EQ(seenCycles, s.cycles);
    engine.run(microWorkload("conflict:0"));
    EXPECT_EQ(starts, 2);
    EXPECT_EQ(ends, 2);
}

TEST(SimEngine, FingerprintSeparatesBehaviors)
{
    SimStats a = SimEngine(goldenBase()).run(microWorkload("conflict:0"));
    SimStats b = SimEngine(goldenBase()).run(microWorkload("conflict:0"));
    EXPECT_EQ(sim::statsFingerprint(a), sim::statsFingerprint(b))
        << "same config + workload must be deterministic";
    SimStats c = SimEngine(goldenBase()).run(
        microWorkload("fma-unbalanced"));
    EXPECT_NE(sim::statsFingerprint(a), sim::statsFingerprint(c));
    EXPECT_EQ(sim::statsFingerprintHex(a).size(), 16u);
}

// ---- golden equivalence matrix --------------------------------------------

/** design name -> workload name -> seed fingerprint (hex), from the
 *  tab-separated goldens file at @p path. */
std::map<std::string, std::map<std::string, std::string>>
loadGoldens(const char *path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing goldens: " << path;
    std::map<std::string, std::map<std::string, std::string>> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string design, workload, hex;
        std::getline(ls, design, '\t');
        std::getline(ls, workload, '\t');
        std::getline(ls, hex, '\t');
        out[design][workload] = hex;
    }
    return out;
}

TEST(EngineEquivalence, RegistryPathMatchesSeedFingerprints)
{
    auto goldens = loadGoldens(SCSIM_ENGINE_GOLDENS);
    ASSERT_EQ(goldens.size(), runner::designCatalog().size())
        << "golden file must cover every design point";

    const char *workloads[] = { "fma-unbalanced", "imbalance:4",
                                "conflict:0" };
    GpuConfig base = goldenBase();
    for (const runner::DesignInfo &d : runner::designCatalog()) {
        std::string name = d.name;
        ASSERT_TRUE(goldens.count(name)) << "no goldens for " << name;
        for (const char *w : workloads) {
            SimEngine engine(runner::designConfig(base, name));
            SimStats s = engine.run(microWorkload(w));
            EXPECT_EQ(sim::statsFingerprintHex(s), goldens[name][w])
                << "design '" << name << "' workload '" << w
                << "' diverged from seed behavior";
        }
    }
}

// ---- suite-app goldens ----------------------------------------------------

/**
 * Suite apps at a tiny scale on 4 SMs, under design points chosen so
 * that together they reach every issue, arbitration and collector
 * path of the hot loop: GTO, LRR, RBA with a fresh and a stale queue
 * view, one fully-connected cluster, bank stealing, the shared warp
 * pool, the migration oracle and a bank count that is not a power of
 * two.  The micro goldens above pin the catalogue on synthetic
 * kernels; these pin the suite's memory-bound and compute-bound mixes.
 */
struct SuitePoint
{
    const char *name;
    GpuConfig (*config)();
};

GpuConfig
suiteBase()
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 4;
    return cfg;
}

const SuitePoint kSuitePoints[] = {
    { "Baseline", [] { return suiteBase(); } },
    { "LRR",
      [] {
          GpuConfig c = suiteBase();
          c.scheduler = SchedulerPolicy::LRR;
          return c;
      } },
    { "RBA", [] { return runner::designConfig(suiteBase(), "RBA"); } },
    { "RBA-lat8",
      [] {
          GpuConfig c = runner::designConfig(suiteBase(), "RBA");
          c.rbaScoreLatency = 8;
          return c;
      } },
    { "Fully-Connected",
      [] { return runner::designConfig(suiteBase(), "Fully-Connected"); } },
    { "BankStealing",
      [] { return runner::designConfig(suiteBase(), "BankStealing"); } },
    { "SharedPool",
      [] {
          GpuConfig c = GpuConfig::keplerLike();
          c.numSms = 4;
          return c;
      } },
    { "Migration",
      [] {
          GpuConfig c = suiteBase();
          c.idealWarpMigration = true;
          return c;
      } },
    { "RBA-3banks",
      [] {
          GpuConfig c = runner::designConfig(suiteBase(), "RBA");
          c.rfBanksPerSm = 12;   // 3 per sub-core
          return c;
      } },
};

TEST(SuiteGoldens, PinnedAppsMatchFingerprints)
{
    auto goldens = loadGoldens(SCSIM_SUITE_GOLDENS);
    ASSERT_EQ(goldens.size(), std::size(kSuitePoints));
    const char *apps[] = { "cutlass-2048", "tpcC-q2", "rod-hotspot",
                           "pb-spmv" };
    for (const SuitePoint &p : kSuitePoints) {
        for (const char *app : apps) {
            SimStats s = SimEngine(p.config()).runApp(findApp(app, 0.02));
            // A mismatch prints the line the file would need.
            EXPECT_EQ(sim::statsFingerprintHex(s), goldens[p.name][app])
                << p.name << "\t" << app << "\t"
                << sim::statsFingerprintHex(s);
        }
    }
}

} // namespace
} // namespace scsim
