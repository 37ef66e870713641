/**
 * @file
 * Figure catalog tests: every row prints the same bytes however its
 * jobs ran — one worker or four, in `run-job` subprocesses, or from a
 * warm result cache — the keys are the 21 figure names, and
 * EXPERIMENTS.md and DESIGN.md name exactly the catalog's figures.
 *
 * Labeled `figures`.  Rows run at a small scale; the budget is a
 * Release build, so the label is not in the sanitizer presets.  The
 * CLI path (the isolated worker) and the two documents' paths are
 * baked in as compile definitions.
 */

#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/sim_error.hh"
#include "figures/catalog.hh"

namespace scsim::figures {
namespace {

constexpr double kScale = 0.02;

runner::SweepOptions
workers(int n)
{
    runner::SweepOptions opts;
    opts.jobs = n;
    opts.progress = false;
    return opts;
}

std::string
render(const Figure &fig, const runner::SweepOptions &opts,
       runner::SweepResult *res = nullptr)
{
    std::ostringstream os;
    runner::SweepResult r = runFigure(fig, kScale, opts, os);
    if (res)
        *res = std::move(r);
    return os.str();
}

std::set<std::string>
catalogNames()
{
    std::set<std::string> names;
    for (const Figure &f : catalog())
        names.insert(f.name);
    return names;
}

TEST(FigureCatalog, KeysAreTheTwentyOneFigureNames)
{
    EXPECT_EQ(catalog().size(), 21u);
    EXPECT_EQ(catalogNames().size(), catalog().size()) << "duplicate key";
    for (const Figure &f : catalog())
        EXPECT_EQ(&findFigure(f.name), &f);
    EXPECT_THROW(findFigure("fig99_missing"), ConfigError);
}

class FigureRows : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FigureRows, OutputIsIdenticalAtOneAndFourWorkers)
{
    const Figure &fig = catalog()[GetParam()];
    std::string one = render(fig, workers(1));
    EXPECT_EQ(render(fig, workers(4)), one);
    EXPECT_EQ(one.rfind(fig.title, 0), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, FigureRows, ::testing::Range<std::size_t>(0, catalog().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(catalog()[info.param].name);
    });

TEST(FigureCatalog, IsolationAndAWarmCachePrintTheSameBytes)
{
    // Fig 14 is printed from each job's RF-read trace, so its output
    // matching here is the trace's round trip through the stats
    // payload: the run-job wire and the on-disk cache entry.
    for (const char *name : { "fig10_sensitive_apps",
                              "fig14_rf_timeseries" }) {
        const Figure &fig = findFigure(name);
        std::string want = render(fig, workers(1));
        EXPECT_EQ(want.find("series:\n"), std::string::npos)
            << "an empty RF-read trace would make the comparison vacuous";

        runner::SweepOptions isolated = workers(4);
        isolated.isolate = true;
        isolated.selfExe = SCSIM_CLI_PATH;
        EXPECT_EQ(render(fig, isolated), want) << name << " isolated";

        runner::SweepOptions cached = workers(4);
        cached.cacheDir = testing::TempDir() + "scsim_figures_" + name;
        std::filesystem::remove_all(cached.cacheDir);
        EXPECT_EQ(render(fig, cached), want) << name << " cold cache";
        runner::SweepResult warm;
        EXPECT_EQ(render(fig, cached, &warm), want) << name << " warm";
        EXPECT_EQ(warm.cacheHits, warm.tags.size()) << name;
    }
}

TEST(FigureDocs, DocsNameExactlyTheCatalogFigures)
{
    const std::set<std::string> known = catalogNames();
    const std::regex figureName(R"(\b(fig[0-9]+|tab[0-9]*|sens)_[a-z0-9_]+)");
    std::set<std::string> documented;
    for (const char *path : { SCSIM_EXPERIMENTS_MD, SCSIM_DESIGN_MD }) {
        std::ifstream in(path);
        ASSERT_TRUE(in) << "cannot read " << path;
        std::string text(std::istreambuf_iterator<char>(in), {});
        for (std::sregex_iterator it(text.begin(), text.end(), figureName),
             end;
             it != end; ++it) {
            EXPECT_TRUE(known.count(it->str()))
                << path << " names '" << it->str()
                << "', which is not in the figure catalog";
            documented.insert(it->str());
        }
    }
    for (const std::string &name : known)
        EXPECT_TRUE(documented.count(name))
            << "catalog row '" << name
            << "' is named in neither EXPERIMENTS.md nor DESIGN.md";
}

} // namespace
} // namespace scsim::figures
