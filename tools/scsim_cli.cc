/**
 * @file
 * Command-line driver for SubCoreSim.  Each command takes only its own
 * flags; kCommands, at the bottom, is the one table of commands and
 * their flags, and these are its rows:
 *
 *   run     WORKLOAD CONFIG [--concurrent]
 *   sweep   SELECT LOCAL [--out results.json] [--csv results.csv]
 *   figure  [NAME... | --all] [--scale S] LOCAL
 *                                 (paper figures; no name lists them)
 *   run-job [--checkpoint-cycles N --state-dir DIR]
 *           (internal: one isolated sweep job; reads an scsim-job record
 *           on stdin, writes an scsim-jobres record on stdout; resumes
 *           from DIR/<key>.snap)
 *   serve   [--socket PATH] [--port N|0] [--workers N] JOBS
 *           [--state-dir DIR] [--max-queued-jobs N]
 *           [--max-sweeps-per-client N] [--idle-timeout SECONDS]
 *           [--max-write-buffer-bytes N] [--listen-backlog N]
 *           [--sndbuf-bytes N]    (sweep farm daemon; 0 = ephemeral port)
 *   submit  CLIENT SELECT [--busy-retries N] [--name LABEL] [--detach]
 *           [--resume] [--quiet] [--out results.json] [--csv results.csv]
 *   status  CLIENT [--json]
 *   drain   CLIENT
 *   checkpoint --file SNAP [--verify | --restore]
 *                                 (offline snapshot inspection / resume)
 *   version                       (build + wire protocol versions)
 *   list    [--suite NAME]
 *   list-designs                  (design points + config overlays)
 *   list-policies                 (scheduler / assignment policy tables)
 *   dump    WORKLOAD --out FILE.sctrace
 *   info    CONFIG
 *
 *   WORKLOAD = (--app NAME | --trace FILE | --micro MICRO) [--scale S]
 *              [--salt N]; MICRO is fma-baseline, fma-balanced,
 *              fma-unbalanced, imbalance:X, conflict:N, hang, crash or
 *              crash:abort
 *   CONFIG   = [--sms N] [--set KEY=VALUE]... [--config FILE]
 *   SELECT   = [--apps A,B | --suite NAME | --subset sensitive|rf|all]
 *              [--designs D,E|all] [--scale S] CONFIG [--salt N]
 *              [--concurrent]
 *   JOBS     = [--cache-dir DIR] [--cache-max-bytes N] [--timeout SECONDS]
 *              [--retries N] [--checkpoint-cycles N] [--quiet]
 *   LOCAL    = JOBS [--jobs N] [--fail-fast] [--max-failures N] [--isolate]
 *              [--journal FILE] [--resume FILE] [--state-dir DIR]
 *   CLIENT   = [--socket PATH | --port N]
 *
 * Values decode strictly (decodeValue, common/state_io.hh).  An unknown
 * flag, a missing value or a refused one is a `fatal:` exit 1 naming
 * the flag and listing the command's; a repeated flag takes its last
 * value, and `--set` collects every one.  Configuration or workload
 * errors are `fatal:` exit 1 too.  A sweep contains per-job failures
 * (the other jobs still run and the manifest records each job's
 * status) but exits 1 if any job failed.
 *
 * `--isolate` runs each job in its own `run-job` subprocess so a
 * crashing job is recorded ("crashed", with its signal) instead of
 * killing the sweep; `--journal`/`--resume` checkpoint finished jobs
 * so an interrupted sweep continues where it stopped.  The
 * SCSIM_FAULT_CRASH environment variable (`<token>[:abort|:<sig>]`)
 * arms a deterministic mid-kernel crash in `run-job` workers, and
 * SCSIM_FAULT_HANG (`<token>`) a synthetic hang for the watchdog to
 * contain — test machinery for the containment paths.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <csignal>
#include <cstring>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault_inject.hh"
#include "common/io_util.hh"
#include "common/logging.hh"
#include "common/state_io.hh"
#include "farm/farm_client.hh"
#include "farm/farm_server.hh"
#include "farm/protocol.hh"
#include "figures/catalog.hh"
#include "runner/design.hh"
#include "runner/dispatcher.hh"
#include "runner/journal.hh"
#include "sim/engine.hh"
#include "runner/job_key.hh"
#include "runner/report.hh"
#include "runner/sweep_engine.hh"
#include "runner/wire.hh"
#include "trace/trace_io.hh"
#include "workloads/microbench.hh"
#include "workloads/suite.hh"

using namespace scsim;

namespace {

/** Every flag's decoded value.  An unset optional means the consumer's
 *  own default (a figure's scale, the daemon's worker count). */
struct Args
{
    std::string command;
    std::vector<std::string> names;  //!< `figure` positionals
    std::string app, trace, micro, apps, suite, subset, designs, config;
    std::optional<double> scale;
    std::optional<int> sms, retries, workers, listenBacklog, busyRetries;
    std::vector<std::string> sets;
    std::uint64_t salt = 0, cacheMaxBytes = 0, checkpointCycles = 0,
                  maxFailures = 0, maxQueuedJobs = 0, maxSweepsPerClient = 0;
    std::optional<std::uint64_t> maxWriteBufferBytes;
    double timeout = 0, idleTimeout = 0;
    int jobs = 0, port = -1, sndbufBytes = 0;
    std::string cacheDir, journal, resumeFile, out, csv, socket, file;
    std::string stateDir;  //!< snapshots; journals too under `serve`
    std::string name = "sweep";
    bool concurrent = false, quiet = false, failFast = false,
         isolate = false, all = false, detach = false, resume = false,
         json = false, verify = false, restore = false;
};

/**
 * One flag meaning: its name, its value's name in the usage list
 * (none for a switch, which sets a bool), the Args field it fills and,
 * for a number, the range the value must fall in.  A vector field
 * collects every occurrence.
 */
struct Flag
{
    const char *name;
    const char *value;
    std::variant<bool Args::*, int Args::*, std::uint64_t Args::*,
                 double Args::*, std::optional<int> Args::*,
                 std::optional<std::uint64_t> Args::*,
                 std::optional<double> Args::*, std::string Args::*,
                 std::vector<std::string> Args::*>
        field;
    std::optional<FieldRange> range = {};
};

using Flags = std::vector<const Flag *>;

Flags
operator+(Flags a, const Flags &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

const FieldRange kAtLeast0 = inRange(0, INT64_MAX);
const FieldRange kAtLeast1 = inRange(1, INT64_MAX);

// WORKLOAD, CONFIG and SELECT.  `--scale 0` is the smallest scale
// (eight blocks an app), and each figure's own for `figure`.
const Flag kApp{ "app", "NAME", &Args::app };
const Flag kTrace{ "trace", "FILE", &Args::trace };
const Flag kMicro{ "micro", "MICRO", &Args::micro };
const Flag kScale{ "scale", "S", &Args::scale, kAtLeast0 };
const Flag kSalt{ "salt", "N", &Args::salt };
const Flag kSms{ "sms", "N", &Args::sms, kAtLeast1 };
const Flag kSet{ "set", "KEY=VALUE", &Args::sets };
const Flag kConfig{ "config", "FILE", &Args::config };
const Flag kApps{ "apps", "A,B", &Args::apps };
const Flag kSuite{ "suite", "NAME", &Args::suite };
const Flag kSubset{ "subset", "sensitive|rf|all", &Args::subset };
const Flag kDesigns{ "designs", "D,E|all", &Args::designs };
const Flag kConcurrent{ "concurrent", nullptr, &Args::concurrent };
// JOBS and LOCAL.  `--jobs 0` is a worker per hardware thread.
const Flag kCacheDir{ "cache-dir", "DIR", &Args::cacheDir };
const Flag kCacheMaxBytes{ "cache-max-bytes", "N", &Args::cacheMaxBytes };
const Flag kTimeout{ "timeout", "SECONDS", &Args::timeout, kAtLeast0 };
const Flag kRetries{ "retries", "N", &Args::retries, kAtLeast1 };
const Flag kCkptCycles{ "checkpoint-cycles", "N", &Args::checkpointCycles };
const Flag kQuiet{ "quiet", nullptr, &Args::quiet };
const Flag kJobs{ "jobs", "N", &Args::jobs, kAtLeast0 };
const Flag kFailFast{ "fail-fast", nullptr, &Args::failFast };
const Flag kMaxFailures{ "max-failures", "N", &Args::maxFailures };
const Flag kIsolate{ "isolate", nullptr, &Args::isolate };
const Flag kJournal{ "journal", "FILE", &Args::journal };
const Flag kResumeFile{ "resume", "FILE", &Args::resumeFile };
const Flag kSnapshotDir{ "state-dir", "DIR", &Args::stateDir };
// The other rows' own.
const Flag kOut{ "out", "results.json", &Args::out };
const Flag kCsv{ "csv", "results.csv", &Args::csv };
const Flag kAll{ "all", nullptr, &Args::all };
const Flag kTraceOut{ "out", "FILE.sctrace", &Args::out };
const Flag kSocket{ "socket", "PATH", &Args::socket };
const Flag kServePort{ "port", "N|0", &Args::port, inRange(0, 65535) };
const Flag kWorkers{ "workers", "N", &Args::workers, kAtLeast1 };
const Flag kJournalDir{ "state-dir", "DIR", &Args::stateDir };
const Flag kMaxQueued{ "max-queued-jobs", "N", &Args::maxQueuedJobs };
const Flag kMaxSweeps{ "max-sweeps-per-client", "N",
                       &Args::maxSweepsPerClient };
const Flag kIdleTimeout{ "idle-timeout", "SECONDS", &Args::idleTimeout,
                         kAtLeast0 };
const Flag kMaxWriteBuffer{ "max-write-buffer-bytes", "N",
                            &Args::maxWriteBufferBytes };
const Flag kBacklog{ "listen-backlog", "N", &Args::listenBacklog,
                     kAtLeast0 };
const Flag kSndbuf{ "sndbuf-bytes", "N", &Args::sndbufBytes, kAtLeast0 };
const Flag kClientPort{ "port", "N", &Args::port, inRange(1, 65535) };
const Flag kBusyRetries{ "busy-retries", "N", &Args::busyRetries,
                         kAtLeast1 };
const Flag kName{ "name", "LABEL", &Args::name };
const Flag kDetach{ "detach", nullptr, &Args::detach };
const Flag kResume{ "resume", nullptr, &Args::resume };
const Flag kJson{ "json", nullptr, &Args::json };
const Flag kFile{ "file", "SNAP", &Args::file };
const Flag kVerify{ "verify", nullptr, &Args::verify };
const Flag kRestore{ "restore", nullptr, &Args::restore };

const Flags kWorkload{ &kApp, &kTrace, &kMicro, &kScale, &kSalt };
const Flags kConfigFlags{ &kSms, &kSet, &kConfig };
const Flags kSelect = Flags{ &kApps, &kSuite, &kSubset, &kDesigns, &kScale }
    + kConfigFlags + Flags{ &kSalt, &kConcurrent };
const Flags kJobFlags{ &kCacheDir, &kCacheMaxBytes, &kTimeout, &kRetries,
                       &kCkptCycles, &kQuiet };
const Flags kLocal = kJobFlags
    + Flags{ &kJobs, &kFailFast, &kMaxFailures, &kIsolate, &kJournal,
             &kResumeFile, &kSnapshotDir };
const Flags kClient{ &kSocket, &kClientPort };

template <class T> struct Unwrapped { using type = T; };
template <class T> struct Unwrapped<std::optional<T>> { using type = T; };

/** Decode @p text into @p flag's field of @p args; empty when it
 *  decodes, else why not. */
std::string
decodeFlag(const Flag &flag, const std::string &text, Args &args)
{
    if (text.empty())
        return "needs a non-empty value";
    return std::visit([&](auto member) -> std::string {
        auto &field = args.*member;
        using T = std::remove_reference_t<decltype(field)>;
        using V = typename Unwrapped<T>::type;
        if constexpr (std::is_same_v<T, std::string>) {
            field = text;  // a path or a name, taken as given
        } else if constexpr (kIsVector<T>) {
            field.push_back(text);
        } else if (V v{}; decodeValue(text, v, flag.range) == Decoded::Ok) {
            field = v;
        } else {
            const FieldRange r = flag.range.value_or(inRange(0, 0));
            return "'" + text + "' is not "
                + (std::is_floating_point_v<V> ? "a finite number"
                   : std::is_unsigned_v<V>     ? "an unsigned integer"
                                               : "an integer")
                + (!flag.range ? ""
                   : r.hi == INT64_MAX
                       ? " >= " + std::to_string(r.lo)
                       : " in " + std::to_string(r.lo) + ".."
                             + std::to_string(r.hi));
        }
        return {};
    }, flag.field);
}

GpuConfig
configFor(const Args &args)
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 8;
    if (!args.config.empty())
        cfg.loadFile(args.config);
    if (args.sms)
        cfg.numSms = *args.sms;
    for (const std::string &kv : args.sets) {
        auto eq = kv.find('=');
        if (eq == std::string::npos)
            scsim_fatal("--set expects key=value, got '%s'", kv.c_str());
        cfg.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    cfg.validate();
    return cfg;
}

/** The number after `<kind>:` in `--micro <kind>:<n>`. */
template <class T>
T
microParam(const std::string &micro, std::size_t at, FieldRange range)
{
    T v{};
    if (decodeValue(micro.substr(at), v, range) != Decoded::Ok)
        scsim_fatal("--micro %s: want a number in %lld..%lld after ':'",
                    micro.c_str(), static_cast<long long>(range.lo),
                    static_cast<long long>(range.hi));
    return v;
}

Application
workloadFor(const Args &args)
{
    if (!args.app.empty())
        return buildApp(findApp(args.app, args.scale.value_or(0.5)),
                        args.salt);
    if (!args.trace.empty())
        return loadApplication(args.trace);
    if (!args.micro.empty()) {
        const std::string &m = args.micro;
        Application app;
        app.name = m;
        app.suite = "micro";
        if (m == "fma-baseline")
            app.kernels.push_back(makeFmaMicro(FmaLayout::Baseline));
        else if (m == "fma-balanced")
            app.kernels.push_back(makeFmaMicro(FmaLayout::Balanced));
        else if (m == "fma-unbalanced")
            app.kernels.push_back(makeFmaMicro(FmaLayout::Unbalanced));
        else if (m.rfind("imbalance:", 0) == 0)
            app.kernels.push_back(makeImbalanceMicro(
                microParam<double>(m, 10, inRange(1, 1000))));
        else if (m.rfind("conflict:", 0) == 0)
            app.kernels.push_back(makeConflictMicro(
                microParam<int>(m, 9, below(kNumConflictMicros))));
        else if (m == "hang")
            app.kernels.push_back(makeHangMicro());
        else if (m == "crash" || m == "crash:abort") {
            app.kernels.push_back(makeCrashMicro());
            FaultInjector::instance().raiseSignalInKernel(
                "crash-micro", m == "crash" ? SIGSEGV : SIGABRT);
        } else
            scsim_fatal("unknown micro '%s'", m.c_str());
        return app;
    }
    scsim_fatal("run/dump need --app, --trace or --micro");
}

int
cmdRun(const Args &args)
{
    GpuConfig cfg = configFor(args);
    Application app = workloadFor(args);
    sim::SimEngine engine(cfg);
    bool concurrent = args.concurrent;
    SimStats s = concurrent ? engine.runConcurrent(app)
                            : engine.run(app);

    std::printf("app                : %s (%zu kernel%s%s)\n",
                app.name.c_str(), app.kernels.size(),
                app.kernels.size() == 1 ? "" : "s",
                concurrent ? ", concurrent" : "");
    std::printf("config             : %d SMs x %d sub-cores, %s + %s%s\n",
                cfg.numSms, cfg.subCores, toString(cfg.scheduler),
                toString(cfg.assign),
                cfg.idealWarpMigration ? " + migration-oracle" : "");
    std::printf("cycles             : %llu\n",
                static_cast<unsigned long long>(s.cycles));
    std::printf("warp instructions  : %llu (IPC %.3f)\n",
                static_cast<unsigned long long>(s.instructions),
                s.ipc());
    std::printf("blocks / warps done: %llu / %llu\n",
                static_cast<unsigned long long>(s.blocksCompleted),
                static_cast<unsigned long long>(s.warpsCompleted));
    std::printf("RF reads per cycle : %.1f  (conflict-cycles %llu)\n",
                static_cast<double>(s.rfReads)
                    / static_cast<double>(s.cycles),
                static_cast<unsigned long long>(
                    s.rfBankConflictCycles));
    if (s.l1Accesses)
        std::printf("L1 / L2 hit rate   : %.1f%% / %.1f%%\n",
                    100.0 * (1.0 - static_cast<double>(s.l1Misses)
                                       / static_cast<double>(
                                             s.l1Accesses)),
                    s.l2Accesses
                        ? 100.0 * (1.0
                                   - static_cast<double>(s.l2Misses)
                                         / static_cast<double>(
                                               s.l2Accesses))
                        : 0.0);
    std::printf("issue CoV          : %.3f\n", s.issueCov());
    if (s.warpMigrations)
        std::printf("warp migrations    : %llu\n",
                    static_cast<unsigned long long>(s.warpMigrations));
    for (const auto &[name, span] : s.kernelSpans)
        std::printf("  kernel %-24s %llu cycles\n", name.c_str(),
                    static_cast<unsigned long long>(span));
    return 0;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/** The (application x design) selection shared by `sweep`/`submit`. */
struct SweepSelection
{
    std::vector<AppSpec> apps;
    std::vector<std::string> designs;  //!< display names, Baseline first
    runner::SweepSpec spec;
};

/**
 * Build the sweep spec from the selection flags.  The Baseline design
 * is always included — speedups are reported against it.  `sweep` and
 * `submit` share this so a submitted sweep is, point for point, the
 * sweep a local run would have executed (that identity is what makes
 * their manifests comparable byte for byte).
 */
SweepSelection
selectSweep(const Args &args)
{
    using namespace scsim::runner;

    GpuConfig base = configFor(args);
    double scale = args.scale.value_or(0.5);

    SweepSelection sel;
    std::vector<AppSpec> &apps = sel.apps;
    if (!args.apps.empty()) {
        for (const std::string &name : splitList(args.apps))
            apps.push_back(findApp(name, scale));
    } else if (!args.suite.empty()) {
        apps = suiteApps(args.suite, scale);
    } else if (!args.subset.empty()) {
        if (args.subset == "sensitive")
            apps = sensitiveApps(scale);
        else if (args.subset == "rf")
            apps = rfSensitiveApps(scale);
        else if (args.subset == "all")
            apps = standardSuite(scale);
        else
            scsim_fatal("unknown subset '%s' (sensitive/rf/all)",
                        args.subset.c_str());
    } else {
        apps = standardSuite(scale);
    }
    if (apps.empty())
        scsim_fatal("sweep selected no applications");

    std::vector<std::string> &designs = sel.designs;
    designs = { designCatalog().front().name };
    if (!args.designs.empty()) {
        if (args.designs == "all") {
            designs.clear();
            for (const DesignInfo &info : designCatalog())
                designs.emplace_back(info.name);
        } else {
            for (const std::string &name : splitList(args.designs)) {
                const DesignInfo *d;
                try {
                    d = &findDesign(name);
                } catch (const ConfigError &e) {
                    // Unknown name: print the menu, not a stack trace.
                    std::fprintf(stderr, "fatal: %s\n"
                                 "available designs:\n", e.what());
                    for (const DesignInfo &info : designCatalog())
                        std::fprintf(stderr, "  %-16s %s\n", info.name,
                                     info.description);
                    std::exit(1);
                }
                if (d->name != designs.front())
                    designs.emplace_back(d->name);
            }
        }
    }

    for (const AppSpec &app : apps) {
        for (const std::string &d : designs) {
            SimJob &job = sel.spec.add(app.name + "|" + d,
                                       designConfig(base, d), app);
            job.salt = args.salt;
            job.concurrent = args.concurrent;
        }
    }
    return sel;
}

/**
 * Per-app speedup table over Baseline (Baseline column = cycles).
 * Failed or skipped points print their status instead of a nonsense
 * ratio and are left out of the mean.
 */
void
printSpeedupTable(const SweepSelection &sel,
                  const runner::SweepResult &res)
{
    using namespace scsim::runner;

    auto resultFor = [&](const std::string &tag) -> const JobResult & {
        for (std::size_t i = 0; i < res.tags.size(); ++i)
            if (res.tags[i] == tag)
                return res.results[i];
        scsim_panic("sweep result missing tag '%s'", tag.c_str());
    };
    std::printf("%-16s %12s", "app", "base-cycles");
    for (std::size_t i = 1; i < sel.designs.size(); ++i)
        std::printf(" %12s", sel.designs[i].c_str());
    std::printf("\n");
    std::vector<std::vector<double>> perDesign(sel.designs.size());
    for (const AppSpec &app : sel.apps) {
        const JobResult &base = resultFor(
            app.name + "|" + sel.designs.front());
        if (base.ok())
            std::printf("%-16s %12llu", app.name.c_str(),
                        static_cast<unsigned long long>(
                            base.stats.cycles));
        else
            std::printf("%-16s %12s", app.name.c_str(),
                        toString(base.status));
        for (std::size_t i = 1; i < sel.designs.size(); ++i) {
            const JobResult &r = resultFor(
                app.name + "|" + sel.designs[i]);
            if (base.ok() && r.ok() && r.stats.cycles) {
                double s = static_cast<double>(base.stats.cycles)
                    / static_cast<double>(r.stats.cycles);
                perDesign[i].push_back(s);
                std::printf(" %12.3f", s);
            } else {
                std::printf(" %12s",
                            r.ok() ? "-" : toString(r.status));
            }
        }
        std::printf("\n");
    }
    if (sel.designs.size() > 1) {
        std::printf("%-16s %12s", "MEAN", "");
        for (std::size_t i = 1; i < sel.designs.size(); ++i)
            std::printf(" %12.3f", mean(perDesign[i]));
        std::printf("\n");
    }
}

/** The end of `sweep` and `submit`: the manifests asked for, the
 *  speedup table, the summary line and the exit code. */
int
reportSweep(const Args &args, const SweepSelection &sel,
            const runner::SweepResult &res, int jobs)
{
    using namespace scsim::runner;

    if (!args.out.empty())
        writeFile(args.out, jsonManifest(sel.spec, res));
    if (!args.csv.empty())
        writeFile(args.csv, csvManifest(sel.spec, res));
    printSpeedupTable(sel, res);
    std::fprintf(stderr, "%s\n", summaryLine(res, jobs).c_str());
    return res.allOk() ? 0 : 1;
}

/** The execution flags `sweep`, `figure` and `serve` share, into the
 *  fields of the same names in SweepOptions or FarmServerOptions. */
template <class Options>
void
applyJobFlags(const Args &args, Options &opts)
{
    opts.cacheDir = args.cacheDir;
    opts.cacheMaxBytes = args.cacheMaxBytes;
    opts.jobTimeoutSec = args.timeout;
    if (args.retries)
        opts.crashAttempts = *args.retries;
    opts.checkpointCycles = args.checkpointCycles;
}

/** How to execute a sweep: the flags `sweep` and `figure` share. */
runner::SweepOptions
sweepOptionsFor(const Args &args)
{
    runner::SweepOptions opts;
    applyJobFlags(args, opts);
    opts.jobs = args.jobs;
    opts.progress = !args.quiet;
    opts.failFast = args.failFast;
    opts.maxFailures = args.maxFailures;
    opts.isolate = args.isolate;
    opts.resumePath = args.resumeFile;
    // A resumed journal is rewritten complete unless --journal says
    // where.
    opts.journalPath = args.journal.empty() ? args.resumeFile
                                            : args.journal;
    opts.snapshotDir = args.stateDir;
    if (opts.checkpointCycles && opts.snapshotDir.empty())
        scsim_fatal("--checkpoint-cycles needs --state-dir DIR for "
                    "the snapshot files");
    if (opts.checkpointCycles && !opts.isolate)
        scsim_fatal("--checkpoint-cycles only applies to isolated "
                    "sweeps (add --isolate)");
    return opts;
}

/**
 * `sweep`: run (application x design) points on the parallel engine
 * and emit a structured manifest.
 */
int
cmdSweep(const Args &args)
{
    using namespace scsim::runner;

    SweepSelection sel = selectSweep(args);
    SweepOptions opts = sweepOptionsFor(args);
    SweepEngine engine(opts);
    return reportSweep(args, sel, engine.run(sel.spec), opts.jobs);
}

/**
 * `figure`: print paper figures from the catalog (figures/catalog.hh)
 * on stdout; progress and one summary line per figure go to stderr.
 * With no name (and no --all) it lists the catalog.
 */
int
cmdFigure(const Args &args)
{
    using namespace scsim::figures;

    std::vector<const Figure *> figs;
    if (args.all)
        for (const Figure &f : catalog())
            figs.push_back(&f);
    for (const std::string &name : args.names)
        figs.push_back(&findFigure(name));
    if (figs.empty()) {
        for (const Figure &f : catalog())
            std::printf("%-26s %s\n", f.name, f.title);
        return 0;
    }

    runner::SweepOptions opts = sweepOptionsFor(args);
    if (figs.size() > 1 && !opts.journalPath.empty())
        scsim_fatal("--journal/--resume name one sweep; run one figure, "
                    "or resume several through --cache-dir");
    double scale = args.scale.value_or(0);  // 0: each figure's default
    for (std::size_t i = 0; i < figs.size(); ++i) {
        if (i)
            std::cout << '\n';
        runner::SweepResult res = runFigure(*figs[i], scale, opts,
                                            std::cout);
        std::cout.flush();
        if (!res.tags.empty())
            std::fprintf(stderr, "%s: %s\n", figs[i]->name,
                         runner::summaryLine(res, opts.jobs).c_str());
    }
    return 0;
}

/**
 * `run-job`: the isolated-sweep worker.  One scsim-job record on
 * stdin, one scsim-jobres record on stdout, exit 0.  Simulation
 * failures (including hangs) are *results*, not process errors —
 * they come back inside the record; a nonzero exit means the
 * protocol itself broke (or the process died, which is the point).
 *
 * With `--checkpoint-cycles N --state-dir DIR` the worker writes a
 * snapshot of the running simulation every N cycles (atomic rename
 * into `DIR/<job-key>.snap`) and, on startup, resumes from any valid
 * snapshot a killed previous attempt left behind.  Damaged or
 * version-skewed snapshots are quarantined as `.corrupt` and the run
 * starts cold — recovery data can never fail the job.  ENOSPC/EDQUOT
 * on a snapshot write degrades to running without checkpoints after
 * one warning.
 */
int
cmdRunJob(const Args &args)
{
    using namespace scsim::runner;

    ignoreSigpipe();

    if (const char *crash = std::getenv("SCSIM_FAULT_CRASH"))
        if (!FaultInjector::instance().armCrashFromEnv(crash))
            scsim_warn("ignoring unparsable SCSIM_FAULT_CRASH='%s'",
                       crash);

    // `<marker-path>!<token>[:abort|:<signum>]`: crash exactly one
    // worker.  The first run-job to win the O_EXCL race on the marker
    // arms the crash; every later spawn (the retry of that same job
    // included) runs clean.  This is how tests prove a killed
    // worker's job is rescheduled, not lost.
    if (const char *once = std::getenv("SCSIM_FAULT_CRASH_ONCE")) {
        std::string v = once;
        auto bang = v.find('!');
        if (bang == std::string::npos || bang == 0
            || bang + 1 >= v.size()) {
            scsim_warn("ignoring unparsable SCSIM_FAULT_CRASH_ONCE="
                       "'%s' (want <marker-path>!<token>[:sig])", once);
        } else {
            std::string marker = v.substr(0, bang);
            std::string spec = v.substr(bang + 1);
            int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY,
                            0644);
            if (fd >= 0) {
                ::close(fd);
                if (!FaultInjector::instance().armCrashFromEnv(
                        spec.c_str()))
                    scsim_warn("ignoring unparsable crash spec '%s'",
                               spec.c_str());
            }
        }
    }

    if (const char *hang = std::getenv("SCSIM_FAULT_HANG"))
        FaultInjector::instance().armHang(hang);

    if (const char *snap = std::getenv("SCSIM_FAULT_SNAPSHOT_WRITE"))
        if (!FaultInjector::instance().armSnapshotWriteFromEnv(snap))
            scsim_warn("ignoring unparsable SCSIM_FAULT_SNAPSHOT_WRITE"
                       "='%s'", snap);

    const std::uint64_t ckptCycles = args.checkpointCycles;
    const std::string &stateDir = args.stateDir;

    std::string input(std::istreambuf_iterator<char>(std::cin), {});
    SimJob job;
    switch (parseJob(input, job)) {
      case WireDecode::Ok:
        break;
      case WireDecode::VersionSkew:
        scsim_fatal("run-job: job record from another wire version");
      case WireDecode::Corrupt:
        scsim_fatal("run-job: corrupt job record on stdin");
    }

    JobResult r;
    r.key = jobKey(job);

    bool checkpointing = ckptCycles > 0 && !stateDir.empty();
    if (checkpointing && !makeDirs(stateDir)) {
        scsim_warn("run-job: cannot create state dir '%s' (%s); "
                   "running without checkpoints", stateDir.c_str(),
                   std::strerror(errno));
        checkpointing = false;
    }
    const std::string snapPath =
        stateDir + "/" + keyToHex(r.key) + ".snap";

    auto quarantine = [&](const char *why) {
        std::string bad = snapPath + ".corrupt";
        if (std::rename(snapPath.c_str(), bad.c_str()) == 0)
            scsim_warn("run-job: %s snapshot quarantined as '%s'; "
                       "starting cold", why, bad.c_str());
        else
            scsim_warn("run-job: %s snapshot '%s' could not be "
                       "quarantined; starting cold", why,
                       snapPath.c_str());
    };

    // A previous (killed) attempt's snapshot resumes this one.  Any
    // damage — bad checksum, another format version, or a payload the
    // simulator rejects below — is a cold start, never a job failure.
    std::string resumeState;
    if (checkpointing) {
        std::string text;
        if (readFileAll(snapPath, text)) {
            std::uint64_t snapKey = 0;
            switch (decodeSnapshot(text, snapKey, resumeState)) {
              case WireDecode::Ok:
                if (snapKey != r.key) {
                    resumeState.clear();
                    quarantine("foreign-job");
                }
                break;
              case WireDecode::VersionSkew:
                quarantine("version-skewed");
                break;
              case WireDecode::Corrupt:
                quarantine("corrupt");
                break;
            }
        }
    }

    auto start = std::chrono::steady_clock::now();
    classifyRun(r, [&] {
        sim::SimEngine engine(job.cfg);
        bool snapshotsDead = false;  // disk trouble: degrade, once
        if (checkpointing) {
            sim::EngineObserver obs;
            obs.onCheckpoint = [&](const std::string &payload, Cycle) {
                if (snapshotsDead)
                    return;
                int err = 0;
                bool failed =
                    FaultInjector::instance().shouldFailSnapshotWrite();
                if (failed)
                    err = ENOSPC;
                else if (!writeFileAtomic(
                             snapPath, serializeSnapshot(r.key, payload),
                             "." + std::to_string(::getpid()), &err))
                    failed = true;
                if (failed) {
                    // One warning, then run on without persistence —
                    // a full disk must cost the checkpoints, not the
                    // job.
                    snapshotsDead = true;
                    scsim_warn("run-job: snapshot write to '%s' failed "
                               "(%s); continuing without checkpoints",
                               snapPath.c_str(),
                               isDiskFull(err) ? "disk full"
                                               : std::strerror(err));
                }
            };
            engine.addObserver(std::move(obs));
            engine.setCheckpointInterval(ckptCycles);
        }
        if (!resumeState.empty()) {
            try {
                r.stats = engine.resumeApp(job.app, job.salt, resumeState);
                r.status = JobStatus::Ok;
                return;
            } catch (const CacheError &e) {
                scsim_warn("run-job: snapshot rejected (%s)", e.what());
                quarantine("unusable");
            } catch (const HangError &e) {
                // A state the load checks accept can still never
                // progress (a collector unit waiting on a read no bank
                // queues).  The cold run decides whether the job hangs.
                scsim_warn("run-job: resumed run made no progress (%s)",
                           e.what());
                quarantine("stuck");
            }
        }
        r.stats = engine.runApp(job.app, job.salt, job.concurrent);
        r.status = JobStatus::Ok;
    });
    r.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();

    // The job has a definitive result (ok, hang, or failed): its
    // snapshot has served its purpose.
    if (checkpointing)
        ::unlink(snapPath.c_str());

    std::string record = serializeJobResult(r);
    if (std::fwrite(record.data(), 1, record.size(), stdout)
            != record.size()
        || std::fflush(stdout) != 0)
        scsim_fatal("run-job: cannot write result record to stdout");
    return 0;
}

farm::FarmServer *g_server = nullptr;

extern "C" void
serveSignalHandler(int)
{
    if (g_server)
        g_server->stop();  // async-signal-safe: atomic + pipe write
}

extern "C" void
serveDrainHandler(int)
{
    // SIGTERM means "finish what you started, then go": jobs in
    // flight complete and journal, queued work is left for --resume.
    // A second SIGTERM escalates to the immediate stop.
    if (g_server)
        g_server->drain();  // async-signal-safe like stop()
}

/**
 * `serve`: the sweep farm daemon.  Binds the requested endpoints,
 * prints where it is serving (the ephemeral-port line is what scripts
 * parse), and runs until SIGINT/SIGTERM.
 */
int
cmdServe(const Args &args)
{
    ignoreSigpipe();

    farm::FarmServerOptions opts;
    opts.socketPath = args.socket;
    opts.tcpPort = args.port;
    if (opts.socketPath.empty() && opts.tcpPort < 0)
        scsim_fatal("serve needs --socket PATH and/or --port N "
                    "(0 = ephemeral)");
    applyJobFlags(args, opts);
    opts.workers = args.workers.value_or(opts.workers);
    opts.stateDir = args.stateDir;
    opts.maxQueuedJobs = args.maxQueuedJobs;
    opts.maxSweepsPerClient = args.maxSweepsPerClient;
    opts.idleTimeoutSec = args.idleTimeout;
    opts.maxWriteBufferBytes =
        args.maxWriteBufferBytes.value_or(opts.maxWriteBufferBytes);
    opts.listenBacklog = args.listenBacklog.value_or(opts.listenBacklog);
    opts.sndbufBytes = args.sndbufBytes;
    opts.quiet = args.quiet;

    std::string socketPath = opts.socketPath;
    farm::FarmServer server(std::move(opts));
    g_server = &server;
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveDrainHandler);

    // Intentionally on stdout and flushed: launch scripts read these
    // lines to learn the endpoints (the ephemeral port especially).
    if (!socketPath.empty())
        std::printf("serving on unix socket %s\n", socketPath.c_str());
    if (server.boundTcpPort() >= 0)
        std::printf("serving on tcp port %d\n", server.boundTcpPort());
    std::fflush(stdout);

    server.run();
    g_server = nullptr;
    return 0;
}

farm::FarmClient
connectFarm(const Args &args)
{
    if (!args.socket.empty())
        return farm::FarmClient::connectUnixSocket(args.socket);
    if (args.port >= 0)
        return farm::FarmClient::connectTcpPort(args.port);
    scsim_fatal("%s needs --socket PATH or --port N to find the daemon",
                args.command.c_str());
}

/**
 * `submit`: run a sweep on the farm.  Same selection flags and same
 * manifests as a local `sweep` — byte-identical, whichever workers
 * (or whose earlier submissions, via the shared cache) produced the
 * results.
 */
int
cmdSubmit(const Args &args)
{
    using namespace scsim::runner;

    SweepSelection sel = selectSweep(args);
    farm::FarmClient client = connectFarm(args);
    if (args.busyRetries) {
        farm::FarmClient::RetryPolicy p;
        p.maxAttempts = *args.busyRetries;
        client.setRetryPolicy(p);
    }

    if (args.detach) {
        farm::AcceptMsg accept =
            client.submitDetached(sel.spec, args.name, args.resume);
        std::printf("submitted sweep %llu: %llu jobs (%llu adopted), "
                    "running detached\n",
                    static_cast<unsigned long long>(accept.sweepId),
                    static_cast<unsigned long long>(accept.jobCount),
                    static_cast<unsigned long long>(accept.adopted));
        return 0;
    }

    std::size_t done = 0;
    auto onJob = [&](const farm::JobDoneMsg &msg) {
        ++done;
        if (args.quiet)
            return;
        std::size_t i = static_cast<std::size_t>(msg.index);
        const std::string &tag = i < sel.spec.jobs.size()
            ? sel.spec.jobs[i].tag : std::string("?");
        const JobResult &r = msg.result;
        if (r.ok())
            std::fprintf(stderr,
                         "[%3zu/%zu] %-28s %12llu cycles  %s\n", done,
                         sel.spec.jobs.size(), tag.c_str(),
                         static_cast<unsigned long long>(
                             r.stats.cycles),
                         msg.adopted ? "(journal)"
                                     : r.cached ? "(cache)" : "(farm)");
        else
            std::fprintf(stderr, "[%3zu/%zu] %-28s %s: %s\n", done,
                         sel.spec.jobs.size(), tag.c_str(),
                         toString(r.status), r.error.c_str());
    };

    return reportSweep(args, sel,
                       client.submit(sel.spec, args.name, args.resume,
                                     onJob),
                       0);
}

/** `status`: one daemon health snapshot, human-readable or JSON. */
int
cmdStatus(const Args &args)
{
    farm::FarmClient client = connectFarm(args);
    farm::FarmStatus st = client.status();

    if (args.json) {
        std::fputs(farm::statusToJson(st).c_str(), stdout);
        return 0;
    }
    std::printf("daemon         : build %s, farm protocol v%u, up "
                "%.1fs\n", st.build.c_str(), st.protocol,
                static_cast<double>(st.uptimeMs) / 1e3);
    std::printf("workers        : %d (%d busy)\n", st.workers,
                st.busyWorkers);
    std::printf("queue          : %llu queued, %llu in flight\n",
                static_cast<unsigned long long>(st.queueDepth),
                static_cast<unsigned long long>(st.inFlight));
    std::printf("sessions       : %llu open\n",
                static_cast<unsigned long long>(st.sessions));
    std::printf("sweeps         : %llu active, %llu completed\n",
                static_cast<unsigned long long>(st.sweepsActive),
                static_cast<unsigned long long>(st.sweepsCompleted));
    std::printf("jobs           : %llu completed (%llu failed, %llu "
                "crashed, %llu coalesced)\n",
                static_cast<unsigned long long>(st.jobsCompleted),
                static_cast<unsigned long long>(st.jobsFailed),
                static_cast<unsigned long long>(st.jobsCrashed),
                static_cast<unsigned long long>(st.jobsCoalesced));
    std::printf("cache          : %llu hits / %llu misses (%.1f%%), "
                "%llu quarantined, %llu evicted\n",
                static_cast<unsigned long long>(st.cacheHits),
                static_cast<unsigned long long>(st.cacheMisses),
                100.0 * st.cacheHitRate(),
                static_cast<unsigned long long>(st.cacheQuarantined),
                static_cast<unsigned long long>(st.cacheEvicted));
    if (st.cacheMaxBytes)
        std::printf("cache disk     : %llu of %llu bytes\n",
                    static_cast<unsigned long long>(st.cacheDiskBytes),
                    static_cast<unsigned long long>(st.cacheMaxBytes));
    else
        std::printf("cache disk     : %llu bytes (unbounded)\n",
                    static_cast<unsigned long long>(st.cacheDiskBytes));
    std::printf("limits         : %llu max queued jobs, %llu max "
                "sweeps/client%s\n",
                static_cast<unsigned long long>(st.maxQueuedJobs),
                static_cast<unsigned long long>(st.maxSweepsPerClient),
                st.draining ? " [draining]" : "");
    std::printf("degradations   : %llu submits rejected, %llu idle "
                "disconnects, %llu slow readers shed\n",
                static_cast<unsigned long long>(st.submitsRejected),
                static_cast<unsigned long long>(st.idleDisconnects),
                static_cast<unsigned long long>(
                    st.slowReaderDisconnects));
    std::printf("               : %llu connections shed, %llu accept "
                "failures, %llu stale completions\n",
                static_cast<unsigned long long>(st.connectionsShed),
                static_cast<unsigned long long>(st.acceptFailures),
                static_cast<unsigned long long>(st.staleCompletions));
    return 0;
}

/** `drain`: ask a daemon to finish in-flight work and exit. */
int
cmdDrain(const Args &args)
{
    farm::FarmClient client = connectFarm(args);
    farm::DrainAckMsg ack = client.drain();
    std::printf("draining: %llu job(s) in flight, %llu queued "
                "(abandoned for --resume), %llu sweep(s) active\n",
                static_cast<unsigned long long>(ack.inFlight),
                static_cast<unsigned long long>(ack.abandoned),
                static_cast<unsigned long long>(ack.sweepsActive));
    return 0;
}

/**
 * `version`: every version a farm peer checks during its handshake.
 * When serve and submit refuse each other, running this on both ends
 * shows which number disagrees.
 */
int
cmdVersion(const Args &)
{
    std::printf("scsim_cli %s\n", farm::buildVersion());
    std::printf("farm protocol  : v%u\n", farm::kFarmProtocolVersion);
    std::printf("job wire       : v%u\n", runner::kJobWireVersion);
    std::printf("result format  : v%u\n", runner::kResultFormatVersion);
    std::printf("manifest       : v%d\n", runner::kManifestVersion);
    std::printf("snapshot format: v%u\n", runner::kSnapshotVersion);
    return 0;
}

/**
 * `checkpoint`: offline snapshot inspection.
 *
 *   checkpoint --file SNAP            show header + run cursor
 *   checkpoint --file SNAP --verify   exit 0 iff the frame decodes
 *   checkpoint --file SNAP --restore  read an scsim-job record on
 *                                     stdin, finish the interrupted
 *                                     run, print the final stats
 *
 * `--restore` is the manual form of what a `run-job` worker does on
 * startup — useful for post-mortems on a quarantined `.corrupt` file
 * (after renaming it back) or for finishing a one-off run by hand.
 */
int
cmdCheckpoint(const Args &args)
{
    using namespace scsim::runner;

    const std::string &path = args.file;
    if (path.empty())
        scsim_fatal("checkpoint needs --file SNAPSHOT");

    std::string text;
    if (!readFileAll(path, text))
        scsim_fatal("cannot read '%s': %s", path.c_str(),
                    std::strerror(errno));

    std::uint64_t snapKey = 0;
    std::string simState;
    WireDecode d = decodeSnapshot(text, snapKey, simState);

    if (args.verify) {
        switch (d) {
          case WireDecode::Ok:
            std::printf("ok: job %s, %zu state bytes\n",
                        keyToHex(snapKey).c_str(), simState.size());
            return 0;
          case WireDecode::VersionSkew: {
            FrameHeader h;
            if (peekFrameHeader(text, h))
                std::printf("version skew: %s v%u (this build speaks "
                            "v%u)\n", h.magic.c_str(), h.version,
                            kSnapshotVersion);
            else
                std::printf("version skew\n");
            return 1;
          }
          case WireDecode::Corrupt:
            std::printf("corrupt\n");
            return 1;
        }
    }

    if (d != WireDecode::Ok)
        scsim_fatal("'%s' is not a valid v%u snapshot (%s)",
                    path.c_str(), kSnapshotVersion,
                    d == WireDecode::VersionSkew ? "version skew"
                                                 : "corrupt");

    if (args.restore) {
        std::string input(std::istreambuf_iterator<char>(std::cin), {});
        SimJob job;
        if (parseJob(input, job) != WireDecode::Ok)
            scsim_fatal("checkpoint --restore: need a valid scsim-job "
                        "record on stdin");
        if (jobKey(job) != snapKey)
            scsim_fatal("snapshot is for job %s, stdin describes job "
                        "%s", keyToHex(snapKey).c_str(),
                        keyToHex(jobKey(job)).c_str());
        sim::SimEngine engine(job.cfg);
        SimStats s = engine.resumeApp(job.app, job.salt, simState);
        std::printf("resumed job %s to completion: %llu cycles, "
                    "fingerprint %s\n", keyToHex(snapKey).c_str(),
                    static_cast<unsigned long long>(s.cycles),
                    sim::statsFingerprintHex(s).c_str());
        return 0;
    }

    // Default: show.  The run cursor is the first few state fields;
    // print them without deserializing the whole machine.
    std::printf("file           : %s\n", path.c_str());
    std::printf("job key        : %s\n", keyToHex(snapKey).c_str());
    std::printf("snapshot format: v%u\n", kSnapshotVersion);
    std::printf("state bytes    : %zu\n", simState.size());
    std::istringstream in(simState);
    std::string line;
    for (int i = 0; i < 5 && std::getline(in, line); ++i)
        std::printf("  %s\n", line.c_str());
    return 0;
}

int
cmdList(const Args &args)
{
    std::vector<AppSpec> apps;
    if (!args.suite.empty())
        apps = suiteApps(args.suite);
    else
        apps = standardSuite();
    std::string last;
    for (const AppSpec &a : apps) {
        if (a.suite != last) {
            std::printf("[%s]\n", a.suite.c_str());
            last = a.suite;
        }
        std::printf("  %-14s blocks=%-4d warps/block=%-3d kernels=%d\n",
                    a.name.c_str(), a.numBlocks, a.warpsPerBlock,
                    a.numKernels);
    }
    return 0;
}

/** `list-designs`: the design catalogue with its config overlays. */
int
cmdListDesigns(const Args &)
{
    using namespace scsim::runner;

    for (const DesignInfo &info : designCatalog()) {
        std::string delta;
        const DesignOverlay &o = info.overlay;
        auto append = [&](const std::string &part) {
            if (!delta.empty())
                delta += ", ";
            delta += part;
        };
        if (o.scheduler)
            append(std::string("scheduler=") + toString(*o.scheduler));
        if (o.assign)
            append(std::string("assign=") + toString(*o.assign));
        if (o.subCores)
            append("subCores=" + std::to_string(*o.subCores));
        if (o.bankStealing)
            append("bankStealing=1");
        if (o.cusPerSubcore)
            append("CUs/sub-core=" + std::to_string(*o.cusPerSubcore));
        if (delta.empty())
            delta = "(baseline)";
        std::printf("%-16s %-52s [%s]\n", info.name,
                    info.description, delta.c_str());
        if (info.aliases[0] != '\0')
            std::printf("%-16s   aliases: %s\n", "", info.aliases);
    }
    return 0;
}

/** One aligned "name  description" line per row of a policy table. */
template <class P, std::size_t N>
void
printPolicies(const char *title, const PolicyInfo<P> (&table)[N])
{
    int width = 0;
    for (const PolicyInfo<P> &row : table)
        width = std::max(width, static_cast<int>(std::strlen(row.name)));
    std::printf("%s:\n", title);
    for (const PolicyInfo<P> &row : table)
        std::printf("  %-*s  %s\n", width, row.name, row.description);
}

/** `list-policies`: the scheduler and assignment policy tables. */
int
cmdListPolicies(const Args &)
{
    printPolicies("warp schedulers", kSchedulerPolicies);
    printPolicies("assignment policies", kAssignPolicies);
    return 0;
}

int
cmdDump(const Args &args)
{
    if (args.out.empty())
        scsim_fatal("dump needs --out <file>");
    Application app = workloadFor(args);
    saveApplication(args.out, app);
    std::printf("wrote %s: %zu kernels, %llu warp instructions\n",
                args.out.c_str(), app.kernels.size(),
                static_cast<unsigned long long>(
                    app.totalWarpInstructions()));
    return 0;
}

int
cmdInfo(const Args &args)
{
    GpuConfig cfg = configFor(args);
    std::printf("numSms=%d subCores=%d scheduler=%s assign=%s\n",
                cfg.numSms, cfg.subCores, toString(cfg.scheduler),
                toString(cfg.assign));
    std::printf("banks/sub-core=%d CUs/sub-core=%d regfile/sub-core=%u "
                "KB\n", cfg.banksPerCluster(), cfg.cusPerCluster(),
                cfg.regFileBytesPerCluster() / 1024);
    std::printf("issueWidth=%d sharedPool=%d bankStealing=%d "
                "migrationOracle=%d rbaLatency=%d hashEntries=%d\n",
                cfg.issueWidthPerScheduler, cfg.sharedWarpPool,
                cfg.bankStealing, cfg.idealWarpMigration,
                cfg.rbaScoreLatency, cfg.hashTableEntries);
    return 0;
}

/** One row of the usage in the file comment. */
struct Command
{
    const char *name;
    int (*run)(const Args &);
    Flags flags;
    const char *operands = nullptr;  //!< positionals, if any
};

const Command kCommands[] = {
    { "run", cmdRun, kWorkload + kConfigFlags + Flags{ &kConcurrent } },
    { "sweep", cmdSweep, kSelect + kLocal + Flags{ &kOut, &kCsv } },
    { "figure", cmdFigure, Flags{ &kAll, &kScale } + kLocal, "NAME..." },
    { "run-job", cmdRunJob, { &kCkptCycles, &kSnapshotDir } },
    { "serve", cmdServe,
      Flags{ &kSocket, &kServePort, &kWorkers } + kJobFlags
          + Flags{ &kJournalDir, &kMaxQueued, &kMaxSweeps, &kIdleTimeout,
                   &kMaxWriteBuffer, &kBacklog, &kSndbuf } },
    { "submit", cmdSubmit,
      kClient + kSelect
          + Flags{ &kBusyRetries, &kName, &kDetach, &kResume, &kQuiet,
                   &kOut, &kCsv } },
    { "status", cmdStatus, kClient + Flags{ &kJson } },
    { "drain", cmdDrain, kClient },
    { "checkpoint", cmdCheckpoint, { &kFile, &kVerify, &kRestore } },
    { "version", cmdVersion, {} },
    { "list", cmdList, { &kSuite } },
    { "list-designs", cmdListDesigns, {} },
    { "list-policies", cmdListPolicies, {} },
    { "dump", cmdDump, kWorkload + Flags{ &kTraceOut } },
    { "info", cmdInfo, kConfigFlags },
};

/** `fatal: @p what`, then the flags @p cmd takes; exit 1. */
[[noreturn]] void
refuseArgs(const Command &cmd, const std::string &what)
{
    std::fprintf(stderr, "fatal: %s\n%s takes:%s\n", what.c_str(), cmd.name,
                 cmd.flags.empty() && !cmd.operands ? " no arguments" : "");
    if (cmd.operands)
        std::fprintf(stderr, "  %s\n", cmd.operands);
    for (const Flag *f : cmd.flags)
        std::fprintf(stderr, "  --%s%s%s\n", f->name, f->value ? " " : "",
                     f->value ? f->value : "");
    std::exit(1);
}

/** Decode argv[2..] against @p cmd's flags. */
Args
parseArgs(const Command &cmd, int argc, char **argv)
{
    Args args;
    args.command = cmd.name;
    for (int i = 2; i < argc; ++i) {
        std::string word = argv[i];
        auto flag = std::find_if(cmd.flags.begin(), cmd.flags.end(),
                                 [&](const Flag *f) {
                                     return word == std::string("--")
                                         + f->name;
                                 });
        if (word.rfind("--", 0) != 0 && cmd.operands)
            args.names.push_back(word);
        else if (word.rfind("--", 0) != 0)
            refuseArgs(cmd, "unexpected argument '" + word + "'");
        else if (flag == cmd.flags.end())
            refuseArgs(cmd, "unknown flag " + word + " for " + cmd.name);
        else if (!(*flag)->value)
            args.*std::get<bool Args::*>((*flag)->field) = true;
        else if (i + 1 == argc)
            refuseArgs(cmd, word + " needs a value");
        else if (std::string why = decodeFlag(**flag, argv[++i], args);
                 !why.empty())
            refuseArgs(cmd, word + ": " + why);
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string names;
    for (const Command &c : kCommands)
        names += std::string(names.empty() ? "" : "|") + c.name;
    auto cmd = std::find_if(
        std::begin(kCommands), std::end(kCommands), [&](const Command &c) {
            return argc > 1 && std::strcmp(argv[1], c.name) == 0;
        });
    if (argc < 2)
        scsim_fatal("usage: scsim_cli <%s> [options]", names.c_str());
    if (cmd == std::end(kCommands))
        scsim_fatal("unknown command '%s' (try %s)", argv[1],
                    names.c_str());

    // The library layer throws (see common/sim_error.hh); the CLI is
    // the process boundary where that becomes an exit code.
    try {
        return cmd->run(parseArgs(*cmd, argc, argv));
    } catch (const HangError &e) {
        std::fprintf(stderr, "fatal: %s\n%s", e.what(),
                     e.diagnostic().c_str());
        return 1;
    } catch (const SimError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
