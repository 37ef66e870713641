#include "figures/catalog.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/logging.hh"
#include "power/cost_model.hh"
#include "runner/design.hh"
#include "sim/engine.hh"
#include "trace/reg_realloc.hh"
#include "workloads/calibration.hh"
#include "workloads/microbench.hh"
#include "workloads/suite.hh"

namespace scsim::figures {

namespace {

using detail::format;
using runner::SweepResult;
using runner::SweepSpec;

/** Scaled-down Volta baseline used by the figures (see DESIGN.md). */
GpuConfig
baseConfig(int numSms)
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = numSms;
    return cfg;
}

double
speedup(Cycle baseline, Cycle design)
{
    return static_cast<double>(baseline) / static_cast<double>(design);
}

SimStats
runSim(const GpuConfig &cfg, const Application &app)
{
    return sim::SimEngine(cfg).run(app);
}

SimStats
runSim(const GpuConfig &cfg, const KernelDesc &kernel)
{
    return sim::SimEngine(cfg).run(kernel);
}

/** One table row: name then fixed-precision values. */
void
printRow(std::ostream &os, const std::string &name,
         const std::vector<double> &values)
{
    os << format("%-16s", name.c_str());
    for (double v : values)
        os << format(" %8.3f", v);
    os << '\n';
}

void
printHeader(std::ostream &os, const std::string &first,
            const std::vector<std::string> &cols)
{
    os << format("%-16s", first.c_str());
    for (const std::string &c : cols)
        os << format(" %8s", c.c_str());
    os << '\n';
}

std::vector<AppSpec>
namedApps(std::initializer_list<const char *> names, double scale)
{
    std::vector<AppSpec> out;
    for (const char *n : names)
        out.push_back(findApp(n, scale));
    return out;
}

SweepSpec
noJobs(double)
{
    return {};
}

// ---- the application x column table ---------------------------------------

enum class Metric { Speedup, IssueCov };
enum class Mean { Arith, Geo };

struct Column
{
    std::string label;
    GpuConfig cfg;
    /** Speedup denominator; empty = the table's base config. */
    std::optional<GpuConfig> den;
};

/** Column running design point @p name on @p base, labelled @p name. */
Column
design(const GpuConfig &base, const char *name)
{
    return { name, runner::designConfig(base, name), std::nullopt };
}

/** One row per application, one value per column, optional means. */
struct AppTable
{
    std::vector<AppSpec> apps;
    std::vector<Column> cols;
    std::vector<std::pair<const char *, Mean>> footer;
    const char *rowHeader = "app";
    Metric metric = Metric::Speedup;
    GpuConfig base = baseConfig(6);
};

/** The common table: design points over @p apps, speedup vs base. */
AppTable
designTable(std::vector<AppSpec> apps,
            std::initializer_list<const char *> designs,
            std::vector<std::pair<const char *, Mean>> footer = {})
{
    AppTable t{ std::move(apps), {}, std::move(footer) };
    for (const char *d : designs)
        t.cols.push_back(design(t.base, d));
    return t;
}

std::string
cellTag(const AppSpec &app, const std::string &what)
{
    return app.name + "|" + what;
}

SweepSpec
tableSpec(const AppTable &t)
{
    bool needsBase = t.metric == Metric::Speedup
        && std::any_of(t.cols.begin(), t.cols.end(),
                       [](const Column &c) { return !c.den; });
    SweepSpec spec;
    for (const AppSpec &app : t.apps) {
        if (needsBase)
            spec.add(cellTag(app, "base"), t.base, app);
        for (const Column &c : t.cols) {
            spec.add(cellTag(app, c.label), c.cfg, app);
            if (c.den)
                spec.add(cellTag(app, c.label + "/den"), *c.den, app);
        }
    }
    return spec;
}

double
cell(const AppTable &t, const SweepResult &res, const AppSpec &app,
     const Column &c)
{
    const SimStats &s = res.stats(cellTag(app, c.label));
    if (t.metric == Metric::IssueCov)
        return s.issueCov();
    return speedup(res.cycles(cellTag(app, c.den ? c.label + "/den"
                                                 : "base")),
                   s.cycles);
}

/** Print @p t; returns the values column by column. */
std::vector<std::vector<double>>
printTable(const AppTable &t, const SweepResult &res, std::ostream &os)
{
    std::vector<std::string> labels;
    for (const Column &c : t.cols)
        labels.push_back(c.label);
    printHeader(os, t.rowHeader, labels);

    std::vector<std::vector<double>> perCol(t.cols.size());
    for (const AppSpec &app : t.apps) {
        std::vector<double> row;
        for (std::size_t i = 0; i < t.cols.size(); ++i) {
            row.push_back(cell(t, res, app, t.cols[i]));
            perCol[i].push_back(row.back());
        }
        printRow(os, app.name, row);
    }
    if (!t.footer.empty())
        os << '\n';
    for (const auto &[label, kind] : t.footer) {
        std::vector<double> means;
        for (const std::vector<double> &v : perCol)
            means.push_back(kind == Mean::Geo ? geomean(v) : mean(v));
        printRow(os, label, means);
    }
    return perCol;
}

/** The spec builder of a figure whose jobs are @p table's. */
std::function<SweepSpec(double)>
specOf(AppTable (*table)(double))
{
    return [table](double s) { return tableSpec(table(s)); };
}

using Epilogue = std::function<void(
    const std::vector<std::vector<double>> &perCol, std::ostream &)>;

/** A figure that is one AppTable, plus an optional closing note. */
Figure
tableFigure(const char *name, const char *title, const char *paper,
            double scale, AppTable (*table)(double),
            Epilogue epilogue = {})
{
    return Figure{
        name, title, paper, scale, specOf(table),
        [table, epilogue](const SweepResult &res, double s,
                          std::ostream &os) {
            auto perCol = printTable(table(s), res, os);
            if (epilogue)
                epilogue(perCol, os);
        } };
}

AppTable
fig01Table(double scale)
{
    return designTable(standardSuite(scale), { "Fully-Connected" });
}

/** Figs 15-17: SRR and Shuffle per TPC-H query. */
AppTable
tpchTable(const char *suite, double scale)
{
    AppTable t = designTable(suiteApps(suite, scale), { "SRR", "Shuffle" },
                             { { "MEAN (arith)", Mean::Arith } });
    t.rowHeader = "query";
    return t;
}

AppTable
rbaLatencyTable(double scale)
{
    AppTable t = designTable(rfSensitiveApps(scale), {},
                             { { "MEAN", Mean::Arith } });
    for (int lat : { 0, 1, 2, 5, 10, 20 }) {
        Column c = design(t.base, "RBA");
        c.label = "lat" + std::to_string(lat);
        c.cfg.rbaScoreLatency = lat;
        t.cols.push_back(std::move(c));
    }
    return t;
}

/** Each bank count is normalized to GTO at the same bank count. */
AppTable
rbaBanksTable(double scale)
{
    AppTable t = designTable(rfSensitiveApps(scale), {},
                             { { "MEAN", Mean::Arith } });
    for (int banks : { 2, 4 }) {
        GpuConfig gto = t.base;
        gto.rfBanksPerSm = banks * gto.subCores;
        GpuConfig rba = gto;
        rba.scheduler = SchedulerPolicy::RBA;
        t.cols.push_back({ std::to_string(banks) + "banks", rba, gto });
    }
    return t;
}

AppTable
hashTableTable(double scale)
{
    AppTable t = designTable(
        namedApps({ "tpcC-q2", "tpcC-q9", "tpcC-q14", "tpcU-q8", "tpcU-q17",
                    "pb-mriq", "rod-srad", "cg-pgrnk" },
                  scale),
        {});
    for (auto [label, policy, entries] :
         { std::tuple{ "shuf4", AssignPolicy::HashShuffle, 4 },
           std::tuple{ "shuf16", AssignPolicy::HashShuffle, 16 },
           std::tuple{ "srr4", AssignPolicy::HashSRR, 4 },
           std::tuple{ "srr16", AssignPolicy::HashSRR, 16 } }) {
        GpuConfig cfg = t.base;
        cfg.assign = policy;
        cfg.hashTableEntries = entries;
        t.cols.push_back({ label, cfg, std::nullopt });
    }
    return t;
}

// ---- figure-specific reducers ---------------------------------------------

/** Fig 1: per-app rows with a geomean line closing each suite. */
void
reduceFig01(const SweepResult &res, double scale, std::ostream &os)
{
    AppTable t = fig01Table(scale);
    std::vector<double> all, suiteVals;
    std::string curSuite;
    auto flushSuite = [&] {
        if (!suiteVals.empty()) {
            printRow(os, "  [" + curSuite + "]",
                     { geomean(suiteVals),
                       static_cast<double>(suiteVals.size()) });
            suiteVals.clear();
        }
    };
    for (const AppSpec &app : t.apps) {
        if (app.suite != curSuite) {
            flushSuite();
            curSuite = app.suite;
        }
        double s = cell(t, res, app, t.cols[0]);
        printRow(os, app.name, { s });
        all.push_back(s);
        suiteVals.push_back(s);
    }
    flushSuite();
    os << '\n';
    printRow(os, "MEAN (arith)", { mean(all) });
    printRow(os, "MEAN (geo)", { geomean(all) });
    os << "Paper reference: ~1.132 (13.2% average speedup)\n";
}

double
normalizedFmaTime(const GpuConfig &cfg, FmaLayout layout)
{
    KernelDesc k = makeFmaMicro(layout, 2048, 32);
    Cycle base =
        runSim(cfg, makeFmaMicro(FmaLayout::Baseline, 2048, 32)).cycles;
    Cycle t = runSim(cfg, k).cycles;
    return static_cast<double>(t) / static_cast<double>(base);
}

/**
 * Fig 3 on simulator stand-ins for the three generations (see
 * DESIGN.md): Volta-like and A100-like partitioned SMs (4 sub-cores)
 * and a Kepler-like monolithic SMX.
 */
void
reduceFig03(const SweepResult &, double, std::ostream &os)
{
    std::pair<const char *, GpuConfig> gens[] = {
        { "V100 (4 sub)", GpuConfig::volta() },
        { "A100 (4 sub)", GpuConfig::a100Like() },
        { "Kepler (mono)", GpuConfig::keplerLike() },
    };
    printHeader(os, "GPU", { "baseline", "balanced", "unbal" });
    for (auto &[name, cfg] : gens) {
        cfg.numSms = 4;
        printRow(os, name,
                 { 1.0, normalizedFmaTime(cfg, FmaLayout::Balanced),
                   normalizedFmaTime(cfg, FmaLayout::Unbalanced) });
    }
}

/** Fig 8: one long warp in four, its length scaled by the factor. */
void
reduceFig08(const SweepResult &, double, std::ostream &os)
{
    GpuConfig rr = baseConfig(2);
    GpuConfig srr = rr;
    srr.assign = AssignPolicy::SRR;
    GpuConfig shuffle = rr;
    shuffle.assign = AssignPolicy::Shuffle;

    printHeader(os, "imbalance", { "RR", "SRR", "Shuffle" });
    for (double imbalance : { 1.0, 2.0, 4.0, 8.0, 16.0, 32.0 }) {
        KernelDesc k = makeImbalanceMicro(imbalance, 256, 16);
        // Normalize each design to the ideal: total work spread
        // perfectly, i.e. the SRR runtime at imbalance 1.
        Cycle t0 = runSim(srr, makeImbalanceMicro(1.0, 256, 16)).cycles;
        double work = (8.0 * imbalance + 24.0) / 32.0;
        double ideal = static_cast<double>(t0) * work;
        printRow(os, std::to_string(imbalance),
                 { static_cast<double>(runSim(rr, k).cycles) / ideal,
                   static_cast<double>(runSim(srr, k).cycles) / ideal,
                   static_cast<double>(runSim(shuffle, k).cycles)
                       / ideal });
    }
}

/** Fig 13 from the analytical cost model (substitute for synthesis). */
void
reduceFig13(const SweepResult &, double, std::ostream &os)
{
    GpuConfig base = GpuConfig::volta();
    CostEstimate ref = CostModel::subcore(base);

    printHeader(os, "design", { "area", "power" });
    for (int cus : { 2, 4, 8, 16 }) {
        GpuConfig cfg = base;
        cfg.collectorUnitsPerSm = cus * cfg.subCores;
        CostEstimate e = CostModel::subcore(cfg);
        printRow(os, std::to_string(cus) + " CUs",
                 { e.area / ref.area, e.power / ref.power });
    }
    GpuConfig rba = base;
    rba.scheduler = SchedulerPolicy::RBA;
    CostEstimate e = CostModel::subcore(rba);
    printRow(os, "RBA (2 CUs)", { e.area / ref.area, e.power / ref.power });

    os << "\nComponent breakdown (baseline):\n";
    CostBreakdown b = CostModel::breakdown(base);
    printHeader(os, "component", { "area", "power" });
    printRow(os, "reg file", { b.rfArea, b.rfPower });
    printRow(os, "scheduler", { b.schedArea, b.schedPower });
    printRow(os, "collectors", { b.cuArea, b.cuPower });
    printRow(os, "crossbar", { b.xbarArea, b.xbarPower });
    os << format("\nRBA storage: %d score bits vs %d bits per CU of "
                 "operand storage\n",
                 CostModel::rbaScoreBits(), CostModel::cuStorageBits());
}

const char *const kFig14Apps[] = { "pb-mriq", "rod-srad" };
const char *const kFig14Designs[] = { "Baseline", "RBA",
                                      "Fully-Connected" };

/** Fig 14 runs one SM with the RF-read trace on, 64-cycle windows. */
SweepSpec
fig14Spec(double scale)
{
    SweepSpec spec;
    for (const char *name : kFig14Apps) {
        AppSpec app = findApp(name, scale);
        for (const char *d : kFig14Designs) {
            GpuConfig cfg = runner::designConfig(baseConfig(1), d);
            cfg.rfTraceEnable = true;
            cfg.rfTraceWindow = 64;
            spec.add(cellTag(app, d), cfg, app);
        }
    }
    return spec;
}

void
reduceFig14(const SweepResult &res, double, std::ostream &os)
{
    for (const char *name : kFig14Apps) {
        os << "--- " << name << " ---\n";
        printHeader(os, "design", { "avg rd/c", "peak", "p<85/all" });
        for (const char *d : kFig14Designs) {
            const SimStats &s = res.stats(std::string(name) + "|" + d);
            const auto &xs = s.rfReadTrace.samples();
            double peak = 0, low = 0;
            for (double x : xs) {
                peak = std::max(peak, x);
                if (x < 85.0)
                    low += 1;
            }
            printRow(os, d,
                     { s.rfReadTrace.average(), peak,
                       xs.empty() ? 0.0
                                  : low / static_cast<double>(xs.size()) });

            // Downsampled series (40 points) — the figure's trace.
            os << "    series:";
            std::size_t step = std::max<std::size_t>(1, xs.size() / 40);
            for (std::size_t i = 0; i < xs.size(); i += step)
                os << format(" %.0f", xs[i]);
            os << '\n';
        }
        os << '\n';
    }
}

/** Fig 18's compute-bound subset, which scales with SM count. */
std::vector<AppSpec>
computeBound(double scale)
{
    return namedApps({ "pb-mriq", "pb-sgemm", "rod-lavaMD", "rod-srad",
                       "ply-2Dcon", "ply-gemm", "db-gemm-tr",
                       "cutlass-4096" },
                     scale);
}

const int kFig18Sms[] = { 7, 8, 9, 10, 11, 12 };

SweepSpec
fig18Spec(double scale)
{
    SweepSpec spec;
    for (const AppSpec &app : computeBound(scale)) {
        spec.add(cellTag(app, "FC8"),
                 runner::designConfig(baseConfig(8), "Fully-Connected"),
                 app);
        for (int n : kFig18Sms) {
            spec.add(cellTag(app, "base" + std::to_string(n)),
                     baseConfig(n), app);
            spec.add(cellTag(app, "ShufRBA" + std::to_string(n)),
                     runner::designConfig(baseConfig(n), "Shuffle+RBA"),
                     app);
        }
    }
    return spec;
}

/** Fig 18: ratios per partitioned SM count and the 1.0 crossings. */
void
reduceFig18(const SweepResult &res, double scale, std::ostream &os)
{
    std::vector<AppSpec> apps = computeBound(scale);
    auto meanCycles = [&](const std::string &what) {
        double sum = 0;
        for (const AppSpec &app : apps)
            sum += static_cast<double>(res.cycles(cellTag(app, what)));
        return sum / static_cast<double>(apps.size());
    };
    double fcTime = meanCycles("FC8");

    printHeader(os, "partSMs", { "base/FC8", "ShufRBA/FC8" });
    double prevBase = 0, prevDesign = 0;
    double crossBase = -1, crossDesign = -1;
    int prevN = 0;
    for (int n : kFig18Sms) {
        double rBase = fcTime / meanCycles("base" + std::to_string(n));
        double rDesign =
            fcTime / meanCycles("ShufRBA" + std::to_string(n));
        printRow(os, std::to_string(n), { rBase, rDesign });
        auto cross = [&](double prev, double cur) {
            // Linear interpolation for ratio == 1.0.
            return prevN + (1.0 - prev) / (cur - prev) * (n - prevN);
        };
        if (crossBase < 0 && prevBase > 0 && prevBase < 1.0
            && rBase >= 1.0)
            crossBase = cross(prevBase, rBase);
        if (crossDesign < 0 && prevDesign > 0 && prevDesign < 1.0
            && rDesign >= 1.0)
            crossDesign = cross(prevDesign, rDesign);
        prevBase = rBase;
        prevDesign = rDesign;
        prevN = n;
    }
    os << format("\nCrossing (ratio=1.0): baseline %.1f SMs, "
                 "Shuffle+RBA %.1f SMs (scale to x10 for the paper's "
                 "80-SM chip)\n",
                 crossBase, crossDesign);
}

void
reduceTab02(const SweepResult &, double, std::ostream &os)
{
    GpuConfig c = GpuConfig::volta();
    c.validate();
    os << format("%-34s %s\n", "Number of SMs", "80 (20 for TPC-H)");
    os << format("%-34s %d\n", "Sub-Cores per SM", c.subCores);
    os << format("%-34s %s\n", "Warp Scheduler Algorithm",
                 toString(c.scheduler));
    os << format("%-34s %d\n", "Max Warps per SM", c.maxWarpsPerSm);
    os << format("%-34s %s\n", "Sub-core Assignment", toString(c.assign));
    os << format("%-34s %u KB\n", "Register File per Sub-core",
                 c.regFileBytesPerCluster() / 1024);
    os << format("%-34s %d\n", "RF Banks per Sub-core",
                 c.banksPerCluster());
    os << format("%-34s %d\n", "CUs per Sub-core", c.cusPerCluster());
    os << format("%-34s %u KB\n", "L1 / Shared Memory Cache",
                 c.l1Bytes / 1024);
    os << format("%-34s %d-way %u MB\n", "L2 Cache", c.l2Ways,
                 c.l2Bytes / (1024 * 1024));
    os << format("%-34s %d / %d / %d\n", "L1 / L2 / DRAM latency (cycles)",
                 c.l1HitLatency, c.l2HitLatency, c.dramLatency);
    os << format("%-34s %.2f / %.2f\n",
                 "L2 / DRAM sectors per cycle per SM",
                 c.l2SectorsPerCyclePerSm, c.dramSectorsPerCyclePerSm);
    os << format("%-34s %d (II %d, lat %d)\n", "FP32 pipes per scheduler",
                 c.spPipesPerScheduler, c.spInitiation, c.spLatency);
}

/** Section V: simulated cycles of the seven conflict micros against
 *  the silicon-substitute oracle, sweeping CUs per sub-core. */
void
reduceCuValidation(const SweepResult &, double, std::ostream &os)
{
    GpuConfig base = baseConfig(2);
    printHeader(os, "micro", { "oracle", "1CU", "2CU", "3CU", "4CU" });

    const int cuCounts[] = { 1, 2, 3, 4 };
    double absErr[4] = { 0, 0, 0, 0 };
    for (int v = 0; v < kNumConflictMicros; ++v) {
        KernelDesc k = makeConflictMicro(v, 1024, 16);
        double oracle = siliconOracleCycles(base, k, 2);
        std::vector<double> row{ oracle };
        for (int i = 0; i < 4; ++i) {
            GpuConfig cfg = base;
            cfg.collectorUnitsPerSm = cuCounts[i] * cfg.subCores;
            double cycles = static_cast<double>(runSim(cfg, k).cycles);
            row.push_back(cycles);
            absErr[i] += std::abs(cycles - oracle) / oracle;
        }
        printRow(os, "micro-" + std::to_string(v), row);
    }

    os << '\n';
    printHeader(os, "CUs/sub-core", { "MAE%" });
    for (int i = 0; i < 4; ++i)
        printRow(os, std::to_string(cuCounts[i]),
                 { 100.0 * absErr[i] / kNumConflictMicros });
}

void
hashTableGap(const std::vector<std::vector<double>> &perCol,
             std::ostream &os)
{
    const std::vector<double> &a4 = perCol[0], &a16 = perCol[1];
    os << '\n';
    printRow(os, "shufMEAN", { mean(a4), mean(a16) });
    double gap = 0;
    for (std::size_t i = 0; i < a4.size(); ++i)
        gap = std::max(gap, std::abs(a4[i] - a16[i]));
    os << format("max |4 vs 16| gap: %.3f\n", gap);
}

// Section I's four partitioning effects, each isolated by a
// deliberate worst-case workload.  In real suites only effects 1
// (bank conflicts) and 2 (issue imbalance) arise with significant
// magnitude; 3 and 4 need warp/kernel mixes the suite rarely has.

/** Effect 1: bank-conflict-prone balanced compute. */
Application
effect1()
{
    Application app;
    app.name = "e1-bank-conflicts";
    app.kernels.push_back(makeConflictMicro(0, 1024, 24));
    return app;
}

/** Effect 2: issue imbalance (one long warp in four). */
Application
effect2()
{
    Application app;
    app.name = "e2-issue-imbalance";
    app.kernels.push_back(makeImbalanceMicro(8.0, 512, 24));
    return app;
}

/** Effect 3: warps with disjoint execution-unit demands. */
Application
effect3()
{
    WarpProgram tensorShape, sfuShape;
    for (int i = 0; i < 768; ++i) {
        RegIndex acc = static_cast<RegIndex>(i % 4);
        tensorShape.code.push_back(
            Instruction::alu(Opcode::TENSOR, acc, acc, 4, 5));
        sfuShape.code.push_back(Instruction::alu(Opcode::SFU, acc, acc));
    }
    for (WarpProgram *p : { &tensorShape, &sfuShape }) {
        p->code.push_back(Instruction::barrier());
        p->code.push_back(Instruction::exit());
    }
    KernelDesc k;
    k.name = "unit-diverse";
    k.numBlocks = 24;
    k.warpsPerBlock = 8;
    k.regsPerThread = 8;
    k.shapes.push_back(std::move(tensorShape));
    k.shapes.push_back(std::move(sfuShape));
    // Round robin sends all tensor warps to sub-cores 0/1 and all SFU
    // warps to 2/3: each sub-core's other pipe idles.
    for (int w = 0; w < 8; ++w)
        k.shapeOfWarp.push_back(w % 4 < 2 ? 0 : 1);
    k.validate();
    Application app;
    app.name = "e3-unit-diversity";
    app.kernels.push_back(k);
    return app;
}

/** Effect 4: concurrent kernels with disparate register demands. */
Application
effect4()
{
    auto computeKernel = [](const char *name, int regs, int insts) {
        WarpProgram p;
        for (int i = 0; i < insts; ++i) {
            RegIndex acc = static_cast<RegIndex>(i % 4);
            p.code.push_back(
                Instruction::alu(Opcode::FMA, acc, acc, 4, 5));
        }
        p.code.push_back(Instruction::barrier());
        p.code.push_back(Instruction::exit());
        KernelDesc k;
        k.name = name;
        k.numBlocks = 24;
        k.warpsPerBlock = 8;
        k.regsPerThread = regs;
        k.shapes.push_back(std::move(p));
        k.shapeOfWarp.assign(8, 0);
        k.validate();
        return k;
    };
    Application app;
    app.name = "e4-reg-capacity";
    app.kernels.push_back(computeKernel("fat-regs", 128, 768));
    app.kernels.push_back(computeKernel("thin-regs", 16, 768));
    return app;
}

void
reduceFourEffects(const SweepResult &, double, std::ostream &os)
{
    GpuConfig part = baseConfig(4);
    GpuConfig fc = runner::designConfig(part, "Fully-Connected");

    printHeader(os, "effect", { "FC/part" });
    std::pair<Application, bool> cases[] = {
        { effect1(), false },
        { effect2(), false },
        { effect3(), false },
        { effect4(), true },
    };
    for (const auto &c : cases) {
        auto cyclesOn = [&](const GpuConfig &cfg) {
            sim::SimEngine engine(cfg);
            return (c.second ? engine.runConcurrent(c.first)
                             : engine.run(c.first))
                .cycles;
        };
        printRow(os, c.first.name, { speedup(cyclesOn(part), cyclesOn(fc)) });
    }
}

// Section VII: the zero-cost assignment hashes against an idealized
// warp-migration oracle that re-binds warps to idle sub-cores for
// free.

AppTable
migrationTable(double scale)
{
    AppTable t = designTable(namedApps({ "tpcU-q8", "tpcC-q9", "tpcC-q14",
                                         "cg-pgrnk", "pb-mriq" },
                                       scale),
                             { "SRR", "Shuffle" });
    GpuConfig oracle = t.base;
    oracle.idealWarpMigration = true;
    t.cols.push_back({ "Oracle", oracle, std::nullopt });
    return t;
}

/** Speedups over @p base, then the oracle's migrations per kcycle. */
std::vector<double>
migrationRow(Cycle base, Cycle srr, Cycle shuffle, const SimStats &oracle)
{
    return { speedup(base, srr), speedup(base, shuffle),
             speedup(base, oracle.cycles),
             1000.0 * static_cast<double>(oracle.warpMigrations)
                 / static_cast<double>(oracle.cycles) };
}

void
reduceMigration(const SweepResult &res, double scale, std::ostream &os)
{
    AppTable t = migrationTable(scale);
    printHeader(os, "workload", { "SRR", "Shuffle", "Oracle", "migr/kc" });
    for (const AppSpec &app : t.apps) {
        auto at = [&](const char *what) -> const SimStats & {
            return res.stats(cellTag(app, what));
        };
        printRow(os, app.name,
                 migrationRow(at("base").cycles, at("SRR").cycles,
                              at("Shuffle").cycles, at("Oracle")));
    }

    // The pathological microbenchmark: the oracle's best case.
    KernelDesc micro = makeImbalanceMicro(16.0, 384, 24);
    printRow(os, "imbalance-16x",
             migrationRow(runSim(t.base, micro).cycles,
                          runSim(t.cols[0].cfg, micro).cycles,
                          runSim(t.cols[1].cfg, micro).cycles,
                          runSim(t.cols[2].cfg, micro)));
}

// Sections III-A / IV-A: how much of the conflict problem the
// compiler's register re-allocation fixes, and how much needs RBA.

AppTable
swizzleTable(double scale)
{
    return designTable(rfSensitiveApps(scale), { "RBA" });
}

Application
realloc2Banks(const Application &app)
{
    Application out;
    out.name = app.name + "-realloc";
    out.suite = app.suite;
    for (const auto &k : app.kernels)
        out.kernels.push_back(reallocateRegisters(k, 2));
    return out;
}

/** The re-allocated code is not a suite app, so it runs in-process. */
void
reduceSwizzle(const SweepResult &res, double scale, std::ostream &os)
{
    AppTable t = swizzleTable(scale);
    const GpuConfig &rba = t.cols[0].cfg;
    printHeader(os, "app", { "realloc", "RBA", "both" });
    std::vector<double> sRe, sRba, sBoth;
    for (const AppSpec &app : t.apps) {
        Application re = realloc2Banks(buildApp(app));
        Cycle b = res.cycles(cellTag(app, "base"));
        double v1 = speedup(b, runSim(t.base, re).cycles);
        double v2 = cell(t, res, app, t.cols[0]);
        double v3 = speedup(b, runSim(rba, re).cycles);
        printRow(os, app.name, { v1, v2, v3 });
        sRe.push_back(v1);
        sRba.push_back(v2);
        sBoth.push_back(v3);
    }
    os << '\n';
    printRow(os, "MEAN", { mean(sRe), mean(sRba), mean(sBoth) });
    os << "\nThe compiler pass removes same-instruction conflicts but "
          "cannot see other\nwarps' requests; RBA recovers the "
          "cross-warp share on top of it.\n";
}

std::vector<Figure>
buildCatalog()
{
    return {
        { "fig01_fully_connected",
          "Figure 1: fully-connected SM speedup over 4-way partitioned, "
          "112 applications",
          "Paper: mean ~1.132x across the suite", 0.3,
          specOf(fig01Table), reduceFig01 },
        { "fig03_fma_hardware",
          "Figure 3: FMA microbenchmark, normalized execution time vs "
          "baseline layout",
          "Paper: A100 unbalanced ~3.9x, V100 similar, Kepler ~1.0x; "
          "balanced ~1.0x everywhere",
          0, noJobs, reduceFig03 },
        { "fig08_imbalance_scaling",
          "Figure 8: unbalanced FMA normalized runtime vs imbalance "
          "factor",
          "Paper: SRR flat ~1.0, Shuffle increasingly behind SRR, RR "
          "worst",
          0, noJobs, reduceFig08 },
        tableFigure(
            "fig09_all_apps",
            "Figure 9: design speedups over GTO+RR baseline, all "
            "applications",
            "Paper: Shuffle+RBA avg 1.106, Fully-Connected avg 1.132", 0.3,
            [](double s) {
                return designTable(standardSuite(s),
                                   { "RBA", "SRR", "Shuffle", "Shuffle+RBA",
                                     "Fully-Connected" },
                                   { { "MEAN (arith)", Mean::Arith },
                                     { "MEAN (geo)", Mean::Geo } });
            },
            [](const std::vector<std::vector<double>> &, std::ostream &os) {
                os << "\nPaper reference means: RBA-family ~1.11 on "
                      "sensitive apps; Shuffle+RBA 1.106 and FC 1.132 "
                      "over all apps\n";
            }),
        tableFigure("fig10_sensitive_apps",
                    "Figure 10: design speedups on partitioning-sensitive "
                    "applications",
                    "Paper: RBA ~1.11 avg, 2x CUs ~1.04, bank stealing "
                    "<1.01, overall sensitive-app gain ~1.19",
                    0.35, [](double s) {
                        return designTable(
                            sensitiveApps(s),
                            { "RBA", "4 CUs", "BankStealing", "SRR",
                              "Shuffle", "Shuffle+RBA", "Fully-Connected" },
                            { { "MEAN (arith)", Mean::Arith } });
                    }),
        tableFigure("fig11_rba_fully_connected",
                    "Figure 11: fully-connected SM with and without RBA, "
                    "RF-sensitive apps (speedup vs partitioned GTO+RR)",
                    "Paper: geomean FC 1.061 -> FC+RBA 1.196 on this subset",
                    0.35, [](double s) {
                        return designTable(rfSensitiveApps(s),
                                           { "RBA", "FC", "FC+RBA" },
                                           { { "GEOMEAN", Mean::Geo } });
                    }),
        tableFigure("fig12_cu_scaling",
                    "Figure 12: CU scaling speedup, normalized to 2 CUs per "
                    "sub-core",
                    "Paper: 4 CUs +4.1%, 8 CUs +7.1%, 16 CUs +9.6%, RBA "
                    "+11.9% on this subset",
                    0.35, [](double s) {
                        return designTable(rfSensitiveApps(s),
                                           { "4 CUs", "8 CUs", "16 CUs", "RBA",
                                             "Fully-Connected" },
                                           { { "MEAN (arith)", Mean::Arith } });
                    }),
        { "fig13_area_power",
          "Figure 13: issue-stage area/power, normalized to 2 CUs + GTO",
          "Paper: 4 CUs = 1.27x area / 1.60x power; RBA = ~1.01x both", 0,
          noJobs, reduceFig13 },
        { "fig14_rf_timeseries",
          "Figure 14: RF reads/cycle traces (single SM, peak 256)",
          "Paper rod-srad averages: baseline 22.2, RBA 27.1, FC 23.4", 0.2,
          fig14Spec, reduceFig14 },
        tableFigure("fig15_tpch_compressed",
                    "Figure 15: compressed TPC-H speedups vs GTO+RR",
                    "Paper: SRR avg 1.331, Shuffle avg 1.274", 0.35,
                    [](double s) { return tpchTable("tpch-c", s); }),
        tableFigure("fig16_tpch_uncompressed",
                    "Figure 16: uncompressed TPC-H speedups vs GTO+RR",
                    "Paper: SRR avg 1.175, Shuffle avg 1.139", 0.35,
                    [](double s) { return tpchTable("tpch-u", s); }),
        tableFigure("fig17_issue_cov",
                    "Figure 17: per-sub-core issue CoV, uncompressed TPC-H",
                    "Paper: RR avg 0.80 -> SRR avg 0.11", 0.35,
                    [](double s) {
                        AppTable t = tpchTable("tpch-u", s);
                        t.metric = Metric::IssueCov;
                        t.cols.insert(t.cols.begin(),
                                      Column{ "RR", t.base, std::nullopt });
                        t.footer = { { "MEAN", Mean::Arith } };
                        return t;
                    }),
        { "fig18_sm_scaling",
          "Figure 18: partitioned SM count needed to match 8 "
          "fully-connected SMs (1/10th of the paper's 80)",
          "Paper (at 80-SM scale): baseline needs ~100, our techniques ~84",
          0.6, fig18Spec, reduceFig18 },
        { "tab02_config", "Table II: baseline simulator configuration",
          nullptr, 0, noJobs, reduceTab02 },
        { "tab_cu_validation",
          "CU-count validation: sim cycles vs analytical silicon oracle "
          "(2 CUs), 7 conflict micros",
          "Paper: MAE minimized at 2 CUs/sub-core (16.2%); worst config "
          "~43%",
          0, noJobs, reduceCuValidation },
        tableFigure("sens_rba_latency",
                    "RBA score staleness sweep (speedup vs GTO baseline)",
                    "Paper: <0.1% average loss from 0 to 20 cycles", 0.35,
                    rbaLatencyTable),
        tableFigure("sens_rba_banks",
                    "RBA speedup vs banks per sub-core (each normalized to "
                    "GTO at the same bank count)",
                    "Paper: RBA benefit 19.3% at 2 banks -> 15.4% at 4 "
                    "banks",
                    0.35, rbaBanksTable),
        tableFigure("sens_hash_table",
                    "Hash-table size: HashShuffle 4 vs 16 entries, and "
                    "HashSRR 4 vs 16 (speedup vs GTO+RR)",
                    "Paper: 16-entry Shuffle within 2% of 4-entry", 0.35,
                    hashTableTable, hashTableGap),
        { "sens_four_effects",
          "Four-effects ablation: fully-connected speedup over "
          "partitioned, worst-case workload per effect",
          "Paper: in real suites only effects 1 and 2 arise with "
          "significant magnitude",
          0, noJobs, reduceFourEffects },
        { "sens_migration",
          "Assignment hashes vs the ideal-migration oracle (speedup vs "
          "GTO+RR)",
          nullptr, 0.35, specOf(migrationTable), reduceMigration },
        { "sens_compiler_swizzle",
          "Compiler register re-allocation vs RBA (speedup over GTO on "
          "the as-generated code)",
          nullptr, 0.35, specOf(swizzleTable), reduceSwizzle },
    };
}

} // namespace

const std::vector<Figure> &
catalog()
{
    static const std::vector<Figure> figures = buildCatalog();
    return figures;
}

const Figure &
findFigure(const std::string &name)
{
    for (const Figure &f : catalog())
        if (name == f.name)
            return f;
    std::ostringstream valid;
    const char *sep = "";
    for (const Figure &f : catalog()) {
        valid << sep << f.name;
        sep = ", ";
    }
    scsim_throw(ConfigError, "unknown figure '%s' (valid: %s)",
                name.c_str(), valid.str().c_str());
}

SweepResult
runFigure(const Figure &fig, double scale,
          const runner::SweepOptions &opts, std::ostream &os)
{
    if (scale <= 0)
        scale = fig.defaultScale;
    os << fig.title << '\n';
    if (fig.paper)
        os << fig.paper << '\n';
    os << '\n';

    SweepSpec spec = fig.spec(scale);
    SweepResult res;
    if (!spec.jobs.empty()) {
        res = runner::SweepEngine(opts).run(spec);
        if (!res.allOk())
            scsim_throw(SimError,
                        "figure %s: %llu of %zu jobs failed, %llu "
                        "skipped",
                        fig.name,
                        static_cast<unsigned long long>(res.failed),
                        spec.jobs.size(),
                        static_cast<unsigned long long>(res.skipped));
    }
    fig.reduce(res, scale, os);
    return res;
}

} // namespace scsim::figures
