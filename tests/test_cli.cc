/**
 * @file
 * The command-line surface, driven the way a user drives it: the real
 * scsim_cli binary (SCSIM_CLI_PATH) spawned through runSubprocess.
 *
 * CliDigests pins one invocation of each command family against
 * tests/goldens/cli_digests.txt: the FNV-1a digest of its stdout, and
 * of every file it writes, with its exit code.  A refactor of the CLI
 * must leave that file untouched; on a mismatch the test prints the
 * line the file would need.  Labeled `cli`.
 *
 * CliFlags feeds the flag decoder typos and out-of-range values, each
 * of which must end in a `fatal:` exit 1 naming the flag, never in a
 * signal or a run of some other experiment.  Labeled `robustness`, so
 * the sanitizer presets run it.
 */

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "runner/job_key.hh"
#include "runner/subprocess.hh"
#include "runner/wire.hh"
#include "sim/engine.hh"
#include "workloads/microbench.hh"

namespace scsim {
namespace {

runner::SubprocessResult
cli(std::vector<std::string> args, double timeoutSec = 60.0)
{
    args.insert(args.begin(), SCSIM_CLI_PATH);
    return runner::runSubprocess(args, "", timeoutSec);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
freshDir(const std::string &leaf)
{
    std::string dir = testing::TempDir() + "scsim_cli_" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A snapshot frame of a small run, taken at its first checkpoint. */
std::string
smallSnapshot()
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 2;
    Application app;
    app.name = "conflict:0";
    app.suite = "micro";
    app.kernels.push_back(makeConflictMicro(0));
    sim::SimEngine engine(cfg);
    std::string first;
    sim::EngineObserver obs;
    obs.onCheckpoint = [&](const std::string &payload, Cycle) {
        if (first.empty())
            first = payload;
    };
    engine.addObserver(std::move(obs));
    engine.setCheckpointInterval(1000);
    engine.run(app);
    return runner::serializeSnapshot(0x0123456789abcdefull, first);
}

TEST(CliDigests, EveryCommandMatchesItsPin)
{
    const std::string dir = freshDir("digests");
    // name -> "<exit code> <digest>"
    std::map<std::string, std::string> got;
    auto pin = [&](const std::string &name, int exitCode,
                   const std::string &bytes) {
        got[name] = std::to_string(exitCode) + " "
            + runner::keyToHex(hashString(bytes));
    };
    auto run = [&](const std::string &name, std::vector<std::string> args) {
        runner::SubprocessResult r = cli(args);
        EXPECT_EQ(r.termSignal, 0) << name << ": " << r.stderrTail;
        pin(name, r.exitCode, r.stdoutText);
        return r.exitCode;
    };

    run("run.app", { "run", "--app", "tpcU-q1", "--scale", "0.05", "--sms",
                     "2" });
    run("run.micro", { "run", "--micro", "conflict:3", "--sms", "2" });

    const std::string trace = dir + "/pb-spmv.sctrace";
    int rc = cli({ "dump", "--app", "pb-spmv", "--scale", "0.05", "--out",
                   trace }).exitCode;
    pin("dump.trace", rc, slurp(trace));
    run("run.trace", { "run", "--trace", trace, "--sms", "2" });

    const std::string json = dir + "/sweep.json";
    const std::string csv = dir + "/sweep.csv";
    rc = run("sweep", { "sweep", "--apps", "tpcU-q1,pb-spmv", "--designs",
                        "RBA,SRR", "--scale", "0.05", "--sms", "2",
                        "--jobs", "2", "--out", json, "--csv", csv });
    pin("sweep.json", rc, slurp(json));
    pin("sweep.csv", rc, slurp(csv));

    run("figure.tab02", { "figure", "tab02_config" });
    run("list", { "list" });
    run("list-designs", { "list-designs" });
    run("list-policies", { "list-policies" });
    run("info", { "info", "--set", "scheduler=RBA" });

    const std::string snap = dir + "/small.snap";
    std::ofstream(snap, std::ios::binary) << smallSnapshot();
    run("checkpoint.verify", { "checkpoint", "--file", snap, "--verify" });
    std::ofstream(snap, std::ios::binary) << "not a snapshot\n";
    run("checkpoint.verify.corrupt",
        { "checkpoint", "--file", snap, "--verify" });

    std::map<std::string, std::string> pins;
    std::ifstream in(SCSIM_CLI_DIGESTS);
    ASSERT_TRUE(in.good()) << "missing " << SCSIM_CLI_DIGESTS;
    std::string line;
    while (std::getline(in, line)) {
        auto tab = line.find('\t');
        if (tab != std::string::npos)
            pins[line.substr(0, tab)] = line.substr(tab + 1);
    }
    for (const auto &[name, value] : got)
        EXPECT_EQ(value, pins[name]) << name << "\t" << value;
    EXPECT_EQ(pins.size(), got.size());
}

TEST(CliFlags, RefusesBadFlagsAndValuesNamingTheFlag)
{
    const std::string dir = freshDir("flags");
    const std::string sock = dir + "/farm.sock";
    struct Case
    {
        std::vector<std::string> args;
        std::string flag;  //!< stderr must name it
        double deadlineSec = 60.0;
    };
    const std::vector<std::string> small = { "--apps", "pb-spmv", "--scale",
                                             "0.05", "--sms", "2",
                                             "--quiet" };
    auto sweep = [&](std::vector<std::string> extra) {
        std::vector<std::string> args{ "sweep" };
        args.insert(args.end(), small.begin(), small.end());
        args.insert(args.end(), extra.begin(), extra.end());
        return args;
    };
    const std::vector<Case> cases = {
        { sweep({ "--design", "RBA,SRR" }), "--design" },
        { { "figure", "tab02_config", "--out", dir + "/x.json", "--csv",
            dir + "/x.csv" },
          "--out" },
        { { "sweep", "--jobs", "abc" }, "--jobs" },
        { { "run", "--app", "pb-spmv", "--scale", "1e400" }, "--scale" },
        { sweep({ "--isolate", "--checkpoint-cycles", "-1", "--state-dir",
                  dir + "/snaps" }),
          "--checkpoint-cycles" },
        { sweep({ "--max-failures", "-1" }), "--max-failures" },
        { { "run", "--app", "pb-spmv", "--scale", "0.05", "--sms", "2",
            "--salt", "-1" },
          "--salt" },
        { { "run", "--app", "pb-spmv", "--scale", "0.05x", "--sms", "2" },
          "--scale" },
        { sweep({ "--retries", "-3" }), "--retries" },
        { { "serve", "--socket", sock, "--workers", "-1" }, "--workers",
          3.0 },
        { { "run", "--micro", "conflict:abc", "--sms", "2" }, "--micro" },
        { { "submit", "--apps", "pb-spmv", "--port", "70000" }, "--port" },
    };
    for (const Case &c : cases) {
        std::string line;
        for (const std::string &a : c.args)
            line += " " + a;
        SCOPED_TRACE("scsim_cli" + line);
        runner::SubprocessResult r = cli(c.args, c.deadlineSec);
        EXPECT_EQ(r.termSignal, 0);
        EXPECT_EQ(r.exitCode, 1);
        EXPECT_EQ(r.stderrTail.rfind("fatal:", 0), 0u) << r.stderrTail;
        EXPECT_NE(r.stderrTail.find(c.flag), std::string::npos)
            << r.stderrTail;
    }
    EXPECT_FALSE(std::filesystem::exists(dir + "/x.json"));
}

} // namespace
} // namespace scsim
