#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include <sys/resource.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "farm/farm_client.hh"
#include "farm/farm_server.hh"
#include "runner/design.hh"
#include "runner/isolated_run.hh"
#include "runner/job_key.hh"
#include "runner/journal.hh"
#include "runner/result_cache.hh"
#include "runner/sweep_engine.hh"
#include "sim/engine.hh"
#include "stats/stats_io.hh"
#include "workloads/microbench.hh"
#include "workloads/suite.hh"

#include "json.hh"
#include "trace.hh"

namespace scsim::bench {

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/**
 * Set-up runs this many times per untraced pass and the fastest is
 * reported: the set-up code's own cost.  Which repetitions also pay
 * first-touch page faults or a glibc heap trim varies from process to
 * process (up to 2x), so a median would jump between those modes.
 */
constexpr int kSetupRepeats = 50;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

// ---- workload definitions ---------------------------------------------

enum class Kind { Sweep, Isolated, Farm, Serial };

/** One simulation of a workload. */
struct Job
{
    runner::SimJob sim;
    /** Serial micro runs: the FMA micro replaces sim.app. */
    std::optional<FmaLayout> micro;
    int microFma = 4096;
};

struct Workload
{
    Kind kind = Kind::Sweep;
    std::vector<Job> jobs;        //!< spec order; farm: A's, then B's
    std::size_t clientAJobs = 0;  //!< farm: jobs [0, this) are A's
};

double
bySize(Size s, double smoke, double bench, double paper)
{
    return s == Size::Smoke ? smoke : s == Size::Bench ? bench : paper;
}

/** Apps 0, n, 2n, ...: a smaller pass that keeps the suite mix. */
std::vector<AppSpec>
everyNth(const std::vector<AppSpec> &apps, std::size_t n)
{
    std::vector<AppSpec> out;
    for (std::size_t i = 0; i < apps.size(); i += n)
        out.push_back(apps[i]);
    return out;
}

GpuConfig
baseConfig(int numSms)
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = numSms;
    return cfg;
}

/** Every app under every design, app-major, tagged `app|design` like
 *  the figure binaries. */
std::vector<Job>
designJobs(const std::vector<AppSpec> &apps, const GpuConfig &base,
           const std::vector<std::string> &designs, std::uint64_t seed)
{
    std::vector<Job> out;
    for (const AppSpec &app : apps)
        for (const std::string &d : designs) {
            Job j;
            j.sim.tag = app.name + "|" + d;
            j.sim.cfg = runner::designConfig(base, d);
            j.sim.app = app;
            j.sim.salt = seed;
            out.push_back(std::move(j));
        }
    return out;
}

const std::vector<std::string> kFig10Designs = {
    "Baseline", "RBA", "4 CUs", "BankStealing", "SRR", "Shuffle",
    "Shuffle+RBA", "Fully-Connected",
};

std::vector<Job>
serialJobs(const std::vector<std::pair<const char *, double>> &apps,
           FmaLayout micro, int microFma, std::uint64_t seed)
{
    std::vector<Job> out;
    for (const auto &[name, scale] : apps) {
        Job j;
        j.sim.tag = name;
        j.sim.cfg = baseConfig(8);
        j.sim.app = findApp(name, scale);
        j.sim.salt = seed;
        out.push_back(std::move(j));
    }
    Job m;
    m.sim.tag = std::string("fma-") + toString(micro);
    m.sim.cfg = baseConfig(8);
    m.micro = micro;
    m.microFma = microFma;
    out.push_back(std::move(m));
    return out;
}

Kind
kindOf(const std::string &name)
{
    if (name == "sweep-isolated")
        return Kind::Isolated;
    if (name == "farm-overlap")
        return Kind::Farm;
    if (name == "serial-sparse" || name == "serial-dense")
        return Kind::Serial;
    return Kind::Sweep;
}

Workload
makeWorkload(const std::string &name, Size size, std::uint64_t seed)
{
    Workload w;
    w.kind = kindOf(name);
    const bool smoke = size == Size::Smoke;
    if (name == "fig10") {
        // bench/fig10_sensitive_apps: 25 apps x 8 designs on 6 SMs.
        std::vector<AppSpec> apps = everyNth(
            sensitiveApps(bySize(size, 0.02, 0.1, 0.35)), smoke ? 9 : 1);
        w.jobs = designJobs(apps, baseConfig(6), kFig10Designs, seed);
    } else if (name == "sweep-isolated") {
        // The shortest real jobs: 8 blocks on 4 SMs, every design.
        std::vector<AppSpec> apps;
        for (const char *suite : { "polybench", "deepbench", "cutlass" })
            for (AppSpec &a : suiteApps(suite, 0.02))
                apps.push_back(std::move(a));
        apps = everyNth(apps, smoke ? 15 : size == Size::Bench ? 2 : 1);
        std::vector<std::string> designs;
        for (const runner::DesignInfo &d : runner::designCatalog())
            designs.emplace_back(d.name);
        w.jobs = designJobs(apps, baseConfig(4), designs, seed);
    } else if (name == "farm-overlap") {
        // Two sweeps that share Baseline, Shuffle+RBA and FC per app.
        std::vector<AppSpec> apps =
            everyNth(sensitiveApps(bySize(size, 0.02, 0.02, 0.1)),
                     smoke ? 13 : size == Size::Bench ? 3 : 1);
        w.jobs = designJobs(apps, baseConfig(8),
                            { "Baseline", "RBA", "SRR", "Shuffle",
                              "Shuffle+RBA", "Fully-Connected" },
                            seed);
        w.clientAJobs = w.jobs.size();
        for (Job &j : designJobs(apps, baseConfig(8),
                                 { "Baseline", "Shuffle+RBA",
                                   "Fully-Connected", "FC+RBA",
                                   "BankStealing", "4 CUs", "8 CUs",
                                   "16 CUs" },
                                 seed))
            w.jobs.push_back(std::move(j));
    } else if (name == "serial-sparse") {
        // 5-16% of the 32 issue slots busy: mostly idle sub-cores.
        double s = bySize(size, 0.02, 0.3, 1.0);
        w.jobs = serialJobs({ { "tpcC-q2", s }, { "tpcU-q8", s },
                              { "pb-spmv", 2 * s } },
                            FmaLayout::Unbalanced, smoke ? 64 : 4096,
                            seed);
    } else {
        // serial-dense: IPC 15-16 of 32, every cluster busy.
        double s = bySize(size, 0.05, 1.5, 6.0);
        w.jobs = serialJobs({ { "cutlass-2048", s }, { "db-gemm-tr", s },
                              { "rod-hotspot", s }, { "ply-gemm", s } },
                            FmaLayout::Balanced, smoke ? 64 : 4096, seed);
    }
    return w;
}

runner::SweepSpec
toSpec(const Workload &w, std::size_t begin, std::size_t end)
{
    runner::SweepSpec spec;
    for (std::size_t i = begin; i < end; ++i)
        spec.jobs.push_back(w.jobs[i].sim);
    return spec;
}

runner::SweepSpec
toSpec(const Workload &w)
{
    return toSpec(w, 0, w.jobs.size());
}

Application
buildJob(const Job &j)
{
    if (!j.micro)
        return buildApp(j.sim.app, j.sim.salt);
    Application app;
    app.name = j.sim.tag;
    app.kernels.push_back(makeFmaMicro(*j.micro, j.microFma));
    return app;
}

// ---- what a pass collects ---------------------------------------------

/** Per-job results of one pass plus its failures; slots are disjoint
 *  per job, so pool workers write them without a lock. */
struct Outcome
{
    explicit Outcome(std::size_t n)
        : stats(n), ok(n, 0), executed(n, 0), jobMs(n, 0.0)
    {
    }

    std::vector<SimStats> stats;
    std::vector<char> ok;
    std::vector<char> executed;  //!< simulated here, not cached/coalesced
    std::vector<double> jobMs;   //!< host time of executed jobs

    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::mutex mutex;

    void
    fail(const std::string &what)
    {
        std::lock_guard lock(mutex);
        ++failed;
        if (errors.size() < 8)
            errors.push_back(what);
    }

    void
    take(std::size_t i, const std::string &tag, const runner::JobResult &r)
    {
        if (!r.ok()) {
            fail(tag + ": " + runner::toString(r.status) + ": " + r.error);
            return;
        }
        stats[i] = r.stats;
        ok[i] = 1;
        executed[i] = !r.cached;
        jobMs[i] = r.cached ? 0.0 : r.wallMs;
    }
};

/** FNV over the per-job stats fingerprints, in spec order. */
std::string
digestOf(const Outcome &o)
{
    std::string all;
    for (const SimStats &s : o.stats)
        all += sim::statsFingerprintHex(s) + "\n";
    return runner::keyToHex(hashString(all));
}

/**
 * Checks that need no pinned digest: a design changes timing, never the
 * instruction stream, so every job of one app issues the same warp
 * instructions; and the farm's two clients must agree on every job
 * they share.
 */
void
crossCheck(const Workload &w, Outcome &o)
{
    if (w.kind == Kind::Serial)
        return;
    std::map<std::string, std::uint64_t> insts;
    std::map<std::uint64_t, std::uint64_t> prints;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        if (!o.ok[i])
            continue;
        const runner::SimJob &job = w.jobs[i].sim;
        auto [it, fresh] =
            insts.try_emplace(job.app.name, o.stats[i].instructions);
        if (!fresh && it->second != o.stats[i].instructions)
            o.fail(job.tag + ": warp instructions differ across designs");
        std::uint64_t fp = sim::statsFingerprint(o.stats[i]);
        auto [pt, first] = prints.try_emplace(runner::jobKey(job), fp);
        if (!first && pt->second != fp)
            o.fail(job.tag + ": duplicate job returned different stats");
    }
}

/** The Fig 10 means EXPERIMENTS.md records for the paper-size run. */
const std::vector<std::pair<std::string, double>> kFig10Experiments = {
    { "RBA", 1.061 },    { "4 CUs", 1.066 },   { "BankStealing", 1.003 },
    { "SRR", 1.069 },    { "Shuffle", 1.054 }, { "Shuffle+RBA", 1.111 },
    { "Fully-Connected", 1.129 },
};

/** fig10's speedup row beside EXPERIMENTS.md; at paper size and seed 0
 *  a mismatch (at the three decimals recorded) fails the pass. */
std::string
fig10Row(const Workload &w, Outcome &o, Size size, std::uint64_t seed)
{
    std::map<std::string, Cycle> cycles;
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
        cycles[w.jobs[i].sim.tag] = o.stats[i].cycles;
    std::vector<std::string> apps;
    for (const Job &j : w.jobs)
        if (apps.empty() || apps.back() != j.sim.app.name)
            apps.push_back(j.sim.app.name);

    std::map<std::string, double> means;
    for (const auto &[design, expected] : kFig10Experiments) {
        double s = 0.0;
        for (const std::string &app : apps) {
            Cycle c = cycles[app + "|" + design];
            s += c ? static_cast<double>(cycles[app + "|Baseline"]) / c
                   : 0.0;
        }
        means[design] = s / apps.size();
    }
    double recovered = (means["Shuffle+RBA"] - 1.0)
        / (means["Fully-Connected"] - 1.0);

    std::string row = "{";
    for (const auto &[design, expected] : kFig10Experiments) {
        double got = means[design];
        row += jsonString(design) + ": {\"measured\": " + jsonNumber(got)
            + ", \"experiments\": " + jsonNumber(expected) + "}, ";
        if (size == Size::Paper && seed == 0 && o.failed == 0
            && std::lround(got * 1000) != std::lround(expected * 1000))
            o.fail(detail::format("fig10 %s mean %.3f, EXPERIMENTS.md "
                                  "records %.3f",
                                  design.c_str(), got, expected));
    }
    return row + "\"loss_recovered\": " + jsonNumber(recovered)
        + ", \"loss_recovered_paper\": 0.81}";
}

// ---- execution helpers ------------------------------------------------

/** `<out>/work-<pid>`, fresh for the pass and removed after it. */
class WorkDir
{
  public:
    explicit WorkDir(const std::string &outDir)
        : path_(outDir + "/work-" + std::to_string(::getpid()))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    std::string sub(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/** The benchmark's own closed-loop pool: @p threads workers claim the
 *  next index of @p order until none is left.  @p fn must not throw. */
void
runPool(const std::vector<std::size_t> &order, int threads,
        const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{ 0 };
    auto worker = [&] {
        for (std::size_t k; (k = next.fetch_add(1)) < order.size();)
            fn(order[k]);
    };
    if (threads <= 1) {
        worker();
        return;
    }
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker);
}

/** An in-process farm daemon on a loopback port, served from its own
 *  thread, with the workload's two clients connected. */
class FarmRig
{
  public:
    FarmRig(const PassOptions &o, const std::string &dir)
    {
        farm::FarmServerOptions fo;
        fo.tcpPort = 0;
        fo.workers = o.workers;
        fo.cacheDir = dir + "/cache";
        fo.stateDir = dir + "/state";
        fo.selfExe = o.cliPath;
        fo.quiet = true;
        server_ = std::make_unique<farm::FarmServer>(std::move(fo));
        thread_ = std::thread([this] {
            try {
                server_->run();
            } catch (...) {
                error_ = std::current_exception();
            }
        });
        try {
            a.emplace(farm::FarmClient::connectTcpPort(port()));
            b.emplace(farm::FarmClient::connectTcpPort(port()));
        } catch (...) {
            stop();
            throw;
        }
    }
    ~FarmRig()
    {
        try {
            stop();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "scsim_bench: farm daemon failed: %s\n",
                         e.what());
        }
    }
    FarmRig(const FarmRig &) = delete;
    FarmRig &operator=(const FarmRig &) = delete;

    int port() const { return server_->boundTcpPort(); }

    /** Stop serving and join; clients blocked on the daemon get EOF. */
    void
    stop()
    {
        if (!thread_.joinable())
            return;
        server_->stop();
        thread_.join();
        a.reset();
        b.reset();
        if (error_)
            std::rethrow_exception(std::exchange(error_, nullptr));
    }

    std::optional<farm::FarmClient> a, b;

  private:
    std::unique_ptr<farm::FarmServer> server_;
    std::exception_ptr error_;
    std::thread thread_;
};

/** Submit both farm sweeps concurrently and wait for both. */
std::pair<runner::SweepResult, runner::SweepResult>
submitBoth(FarmRig &rig, const Workload &w,
           const farm::FarmClient::ProgressFn &onA,
           const farm::FarmClient::ProgressFn &onB,
           const std::function<void(char, bool)> &mark = {})
{
    runner::SweepSpec specA = toSpec(w, 0, w.clientAJobs);
    runner::SweepSpec specB = toSpec(w, w.clientAJobs, w.jobs.size());
    runner::SweepResult resA, resB;
    std::exception_ptr errB;
    std::thread tb([&] {
        try {
            if (mark)
                mark('B', true);
            resB = rig.b->submit(specB, "farm-overlap-b", false, onB);
            if (mark)
                mark('B', false);
        } catch (...) {
            errB = std::current_exception();
        }
    });
    try {
        if (mark)
            mark('A', true);
        resA = rig.a->submit(specA, "farm-overlap-a", false, onA);
        if (mark)
            mark('A', false);
    } catch (...) {
        // Unblock B before joining it; A's error is the one reported.
        try {
            rig.stop();
        } catch (...) {
        }
        tb.join();
        throw;
    }
    tb.join();
    if (errB)
        std::rethrow_exception(errB);
    return { std::move(resA), std::move(resB) };
}

void
takeFarm(const Workload &w, Outcome &out, const runner::SweepResult &a,
         const runner::SweepResult &b)
{
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        const runner::SweepResult &r = i < w.clientAJobs ? a : b;
        std::size_t k = i < w.clientAJobs ? i : i - w.clientAJobs;
        out.take(i, w.jobs[i].sim.tag, r.results.at(k));
    }
}

// ---- the passes -------------------------------------------------------

struct PassTimes
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<double> setupS;
};

/** User+sys CPU of this process and every child it has reaped. */
double
cpuSeconds()
{
    double total = 0.0;
    for (int who : { RUSAGE_SELF, RUSAGE_CHILDREN }) {
        struct rusage ru = {};
        ::getrusage(who, &ru);
        total += ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6
            + ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
    }
    return total;
}

void
untracedPass(const PassOptions &o, const WorkDir &work, Workload &w,
             std::optional<Outcome> &out, PassTimes &t)
{
    Kind kind = kindOf(o.workload);
    auto setup = [&](const std::function<void()> &fn) {
        auto t0 = Clock::now();
        w = makeWorkload(o.workload, o.size, o.seed);
        fn();
        t.setupS.push_back(secondsSince(t0));
    };
    // The measured region: wall time, and CPU time of the pass process
    // plus the run-job workers it reaped meanwhile.
    auto measure = [&](const std::function<void()> &fn) {
        double c0 = cpuSeconds();
        auto t0 = Clock::now();
        fn();
        t.wallS = secondsSince(t0);
        t.cpuS = cpuSeconds() - c0;
    };

    if (kind == Kind::Sweep || kind == Kind::Isolated) {
        std::unique_ptr<runner::SweepEngine> engine;
        runner::SweepSpec spec;
        for (int k = 0; k < kSetupRepeats; ++k) {
            engine.reset();
            setup([&] {
                spec = toSpec(w);
                runner::SweepOptions so;
                so.jobs = o.workers;
                so.cacheDir = work.sub("cache" + std::to_string(k));
                so.journalPath = work.sub("journal" + std::to_string(k));
                so.isolate = kind == Kind::Isolated;
                so.selfExe = o.cliPath;
                engine = std::make_unique<runner::SweepEngine>(so);
            });
        }
        runner::SweepResult res;
        measure([&] { res = engine->run(spec); });
        out.emplace(w.jobs.size());
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            out->take(i, w.jobs[i].sim.tag, res.results[i]);
    } else if (kind == Kind::Farm) {
        std::unique_ptr<FarmRig> rig;
        for (int k = 0; k < kSetupRepeats; ++k) {
            rig.reset();
            setup([&] {
                rig = std::make_unique<FarmRig>(
                    o, work.sub("farm" + std::to_string(k)));
            });
        }
        std::pair<runner::SweepResult, runner::SweepResult> res;
        measure([&] { res = submitBoth(*rig, w, {}, {}); });
        out.emplace(w.jobs.size());
        takeFarm(w, *out, res.first, res.second);
        rig->stop();
    } else {
        std::vector<Application> apps;
        std::vector<sim::SimEngine> engines;
        for (int k = 0; k < kSetupRepeats; ++k) {
            apps.clear();
            engines.clear();
            setup([&] {
                for (const Job &j : w.jobs) {
                    apps.push_back(buildJob(j));
                    engines.emplace_back(j.sim.cfg);
                }
            });
        }
        out.emplace(w.jobs.size());
        measure([&] {
            for (std::size_t i = 0; i < w.jobs.size(); ++i) {
                auto tj = Clock::now();
                out->stats[i] = engines[i].run(apps[i]);
                out->jobMs[i] = secondsSince(tj) * 1e3;
                out->ok[i] = out->executed[i] = 1;
            }
        });
    }
}

/** Per-layer counts over the jobs this pass simulated itself. */
void
countLayers(const Workload &w, const Outcome &out,
            std::map<std::string, double> &l, double runMsTotal)
{
    double cycles = 0, smCycles = 0, insts = 0, slots = 0, sched = 0,
           noWarp = 0, rf = 0, cu = 0, l1 = 0, l1Miss = 0, l2 = 0;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        if (!out.ok[i] || !out.executed[i])
            continue;
        const SimStats &s = out.stats[i];
        cycles += s.cycles;
        smCycles += static_cast<double>(s.cycles) * w.jobs[i].sim.cfg.numSms;
        insts += s.instructions;
        slots += s.issueSlotsUsed;
        sched += s.schedCycles;
        noWarp += s.stallNoWarp;
        rf += s.rfReads;
        cu += s.cuDispatches;
        l1 += s.l1Accesses;
        l1Miss += s.l1Misses;
        l2 += s.l2Accesses;
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    l["gpu.sim_cycles"] = cycles;
    l["gpu.ns_per_sm_cycle"] = ratio(runMsTotal * 1e6, smCycles);
    l["core.warp_insts"] = insts;
    l["core.ns_per_warp_inst"] = ratio(runMsTotal * 1e6, insts);
    l["core.issue_slot_util"] = ratio(slots, sched);
    l["core.idle_sched_frac"] = ratio(noWarp, sched);
    l["core.rf_reads"] = rf;
    l["core.cu_dispatches"] = cu;
    l["mem.l1_accesses"] = l1;
    l["mem.l2_accesses"] = l2;
    l["mem.l1_miss_rate"] = ratio(l1Miss, l1);
}

/**
 * The stats and runner layer calls for job @p i, under span @p parent:
 * serialize, decode (checked against the original), cache store, a
 * disk lookup through a second cache on the same directory, and a
 * journal append.
 */
void
runnerLayers(Tracer &tr, std::uint64_t id, int parent, std::size_t i,
             const Job &job, const SimStats &st, Outcome &out,
             runner::ResultCache &cache, runner::ResultCache &reader,
             runner::JournalWriter &journal, std::vector<double> &bytes)
{
    std::string payload;
    {
        SpanScope s(tr, "stats.serialize", id, parent);
        payload = serializeStatsPayload(st);
    }
    bytes[i] = static_cast<double>(payload.size());
    SimStats back;
    bool parsed;
    {
        SpanScope s(tr, "stats.decode", id, parent);
        parsed = parseStatsPayload(payload, back);
    }
    if (!parsed || serializeStatsPayload(back) != payload)
        out.fail(job.sim.tag + ": stats payload does not round-trip");

    runner::JobResult r;
    r.key = runner::jobKey(job.sim);
    r.stats = st;
    r.status = runner::JobStatus::Ok;
    {
        SpanScope s(tr, "runner.cache_store", id, parent);
        cache.store(r.key, st);
    }
    SimStats hit;
    bool found;
    {
        SpanScope s(tr, "runner.cache_lookup", id, parent);
        found = reader.lookup(r.key, hit);
    }
    if (!found || sim::statsFingerprint(hit) != sim::statsFingerprint(st))
        out.fail(job.sim.tag + ": cache did not return the stored stats");
    {
        SpanScope s(tr, "runner.journal_append", id, parent);
        journal.append(i, job.sim.tag, r);
    }
}

double
medianMs(const Tracer &tr, const char *name)
{
    return percentile(tr.durationsMs(name), 0.5);
}

/** The stats and runner metrics from runnerLayers()' spans. */
void
runnerLayerMetrics(const Tracer &tr, const std::vector<double> &bytes,
                   std::map<std::string, double> &l)
{
    l["stats.serialize_us"] = medianMs(tr, "stats.serialize") * 1e3;
    l["stats.decode_us"] = medianMs(tr, "stats.decode") * 1e3;
    l["stats.payload_bytes"] = sum(bytes);
    l["runner.cache_store_us"] = medianMs(tr, "runner.cache_store") * 1e3;
    l["runner.cache_lookup_us"] =
        medianMs(tr, "runner.cache_lookup") * 1e3;
    l["runner.journal_append_us"] =
        medianMs(tr, "runner.journal_append") * 1e3;
}

/** Traced pass of the sweep, isolated and serial workloads. */
void
tracedJobs(const PassOptions &o, const WorkDir &work, Tracer &tr,
           Workload &w, std::optional<Outcome> &out, PassTimes &t,
           std::map<std::string, double> &l)
{
    auto t0 = Clock::now();
    w = makeWorkload(o.workload, o.size, o.seed);
    t.setupS.push_back(secondsSince(t0));
    out.emplace(w.jobs.size());
    const std::size_t n = w.jobs.size();
    const bool serial = w.kind == Kind::Serial;
    const bool isolated = w.kind == Kind::Isolated;

    runner::ResultCache cache(work.sub("cache"));
    runner::ResultCache reader(work.sub("cache"));
    runner::JournalWriter journal(work.sub("journal"),
                                  runner::sweepSpecHash(toSpec(w)), n,
                                  /*fresh=*/true);
    runner::IsolatedRunOptions iso;
    iso.selfExe = o.cliPath;

    // Sweeps claim longest-expected-first, as SweepEngine does.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    if (!serial)
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return w.jobs[a].sim.expectedCost()
                                 > w.jobs[b].sim.expectedCost();
                         });

    std::vector<double> bytes(n, 0.0), isoOverheadMs(n, 0.0);
    const int threads = serial ? 1 : o.workers;
    auto start = Clock::now();
    runPool(order, threads, [&](std::size_t i) {
        const Job &job = w.jobs[i];
        const std::uint64_t id = i + 1;
        SpanScope js(tr, "job", id);
        try {
            runner::JobResult isoRes;
            double isoMs = 0.0;
            if (isolated) {
                SpanScope s(tr, "runner.isolated_job", id, js.id());
                auto ti = Clock::now();
                isoRes.key = runner::jobKey(job.sim);
                runner::runJobIsolated(job.sim, iso, isoRes);
                isoMs = secondsSince(ti) * 1e3;
            }
            auto tin = Clock::now();
            Application app;
            {
                SpanScope s(tr, "workloads.build", id, js.id());
                app = buildJob(job);
            }
            std::optional<sim::SimEngine> engine;
            {
                SpanScope s(tr, "sim.engine_ctor", id, js.id());
                engine.emplace(job.sim.cfg);
            }
            SimStats st;
            {
                SpanScope s(tr, "gpu.run", id, js.id());
                st = job.sim.concurrent ? engine->runConcurrent(app)
                                        : engine->run(app);
            }
            out->stats[i] = st;
            out->ok[i] = out->executed[i] = 1;
            if (isolated) {
                isoOverheadMs[i] = isoMs - secondsSince(tin) * 1e3;
                if (!isoRes.ok()
                    || sim::statsFingerprint(isoRes.stats)
                        != sim::statsFingerprint(st))
                    out->fail(job.sim.tag
                              + ": isolated run differs from in-process");
            }
            if (!serial)
                runnerLayers(tr, id, js.id(), i, job, st, *out, cache,
                             reader, journal, bytes);
        } catch (const std::exception &e) {
            out->fail(job.sim.tag + ": " + e.what());
        }
    });
    t.wallS = secondsSince(start);

    std::vector<double> jobs = tr.durationsMs("job");
    std::vector<double> builds = tr.durationsMs("workloads.build");
    l["workloads.build_ms"] = medianMs(tr, "workloads.build");
    l["workloads.build_share"] = sum(builds) / std::max(sum(jobs), 1e-9);
    l["sim.engine_ctor_ms"] = medianMs(tr, "sim.engine_ctor");
    l["gpu.run_ms"] = medianMs(tr, "gpu.run");
    countLayers(w, *out, l, sum(tr.durationsMs("gpu.run")));
    runnerLayerMetrics(tr, bytes, l);
    l["runner.isolated_job_ms"] = medianMs(tr, "runner.isolated_job");
    l["runner.isolation_overhead_ms"] =
        isolated ? percentile(isoOverheadMs, 0.5) : 0.0;
    l["runner.pool_util"] = sum(jobs) / (threads * t.wallS * 1e3);
}

/** Traced pass of the farm workload: per-job spans from the streamed
 *  jobdone timestamps, then the stats/runner layer calls on the
 *  results the farm computed. */
void
tracedFarm(const PassOptions &o, const WorkDir &work, Tracer &tr,
           Workload &w, std::optional<Outcome> &out, PassTimes &t,
           std::map<std::string, double> &l)
{
    auto t0 = Clock::now();
    w = makeWorkload(o.workload, o.size, o.seed);
    FarmRig rig(o, work.sub("farm"));
    t.setupS.push_back(secondsSince(t0));
    out.emplace(w.jobs.size());

    // Each job's span ends when its jobdone arrives and starts its
    // worker-side run time earlier, under its client's sweep span.
    int spanA = Tracer::kNoParent, spanB = Tracer::kNoParent;
    auto progress = [&](const int &parent, std::uint64_t firstId) {
        return [&parent, &tr, firstId](const farm::JobDoneMsg &m) {
            std::int64_t now = tr.now();
            auto runNs = static_cast<std::int64_t>(m.result.wallMs * 1e6);
            tr.add("farm.job", firstId + m.index, parent, now - runNs, now);
        };
    };
    auto mark = [&](char who, bool begin) {
        int &span = who == 'A' ? spanA : spanB;
        if (begin)
            span = tr.begin(who == 'A' ? "farm.sweep_a" : "farm.sweep_b", 0);
        else
            tr.end(span);
    };
    auto start = Clock::now();
    auto [a, b] = submitBoth(rig, w, progress(spanA, 1),
                             progress(spanB, w.clientAJobs + 1), mark);
    t.wallS = secondsSince(start);
    takeFarm(w, *out, a, b);
    farm::FarmStatus st = rig.a->status();

    // Accept round trip (framing, validation, journal open, enqueue) of
    // each client's spec, resubmitted detached once every result is
    // cached so the daemon is otherwise idle.
    std::vector<double> acceptMs;
    for (auto [client, begin, end] :
         { std::tuple(&*rig.a, std::size_t{ 0 }, w.clientAJobs),
           std::tuple(&*rig.b, w.clientAJobs, w.jobs.size()) }) {
        runner::SweepSpec spec = toSpec(w, begin, end);
        SpanScope s(tr, "farm.accept", 0);
        auto ta = Clock::now();
        client->submitDetached(spec, "farm-overlap-accept", false);
        acceptMs.push_back(secondsSince(ta) * 1e3);
    }
    rig.stop();

    const std::size_t n = w.jobs.size();
    runner::ResultCache cache(work.sub("cache"));
    runner::ResultCache reader(work.sub("cache"));
    runner::JournalWriter journal(work.sub("journal"),
                                  runner::sweepSpecHash(toSpec(w)), n,
                                  /*fresh=*/true);
    std::vector<double> bytes(n, 0.0);
    double poolMs = 0.0, cached = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!out->ok[i])
            continue;
        if (!out->executed[i]) {
            ++cached;
            continue;
        }
        poolMs += out->jobMs[i];
        SpanScope js(tr, "job", i + 1);
        try {
            runnerLayers(tr, i + 1, js.id(), i, w.jobs[i], out->stats[i],
                         *out, cache, reader, journal, bytes);
        } catch (const std::exception &e) {
            out->fail(w.jobs[i].sim.tag + ": " + e.what());
        }
    }

    countLayers(w, *out, l, 0.0);
    runnerLayerMetrics(tr, bytes, l);
    l["farm.accept_ms"] = percentile(acceptMs, 0.5);
    l["farm.jobs_coalesced"] = static_cast<double>(st.jobsCoalesced);
    l["farm.cache_hits"] = static_cast<double>(st.cacheHits);
    l["farm.dedup_frac"] = cached / n;
    l["farm.pool_util"] = poolMs / (o.workers * t.wallS * 1e3);
}

} // namespace

const char *
toString(Size s)
{
    switch (s) {
      case Size::Smoke: return "smoke";
      case Size::Bench: return "bench";
      case Size::Paper: return "paper";
    }
    return "?";
}

bool
parseSize(const std::string &name, Size &out)
{
    for (Size s : { Size::Smoke, Size::Bench, Size::Paper })
        if (name == toString(s)) {
            out = s;
            return true;
        }
    return false;
}

const std::vector<std::string> &
workloadNames()
{
    // Why each workload is in the benchmark: BENCHMARK.json, README.md.
    static const std::vector<std::string> names = {
        "fig10", "sweep-isolated", "farm-overlap", "serial-sparse",
        "serial-dense",
    };
    return names;
}

bool
isWorkload(const std::string &name)
{
    const std::vector<std::string> &all = workloadNames();
    return std::find(all.begin(), all.end(), name) != all.end();
}

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> metrics = {
        { "workloads.build_ms", "ms", false },
        { "workloads.build_share", "ratio", false },
        { "sim.engine_ctor_ms", "ms", false },
        { "gpu.run_ms", "ms", false },
        { "gpu.sim_cycles", "count", true },
        { "gpu.ns_per_sm_cycle", "ns", false },
        { "core.warp_insts", "count", true },
        { "core.ns_per_warp_inst", "ns", false },
        { "core.issue_slot_util", "ratio", true },
        { "core.idle_sched_frac", "ratio", true },
        { "core.rf_reads", "count", true },
        { "core.cu_dispatches", "count", true },
        { "mem.l1_accesses", "count", true },
        { "mem.l2_accesses", "count", true },
        { "mem.l1_miss_rate", "ratio", true },
        { "stats.serialize_us", "us", false },
        { "stats.decode_us", "us", false },
        { "stats.payload_bytes", "bytes", true },
        { "runner.cache_store_us", "us", false },
        { "runner.cache_lookup_us", "us", false },
        { "runner.journal_append_us", "us", false },
        { "runner.isolated_job_ms", "ms", false },
        { "runner.isolation_overhead_ms", "ms", false },
        { "runner.pool_util", "ratio", false },
        // Filled in across the untraced passes by scsim_bench: the job
        // time distribution jumps between app clusters with the seed,
        // too far for an end-to-end bound.
        { "runner.job_p50_ms", "ms", false },
        { "runner.job_p95_ms", "ms", false },
        // Coalesced vs cache hit depends on timing; their sum does not.
        { "farm.accept_ms", "ms", false },
        { "farm.jobs_coalesced", "count", false },
        { "farm.cache_hits", "count", false },
        { "farm.dedup_frac", "ratio", true },
        { "farm.pool_util", "ratio", false },
        { "trace_overhead_frac", "ratio", false },
    };
    return metrics;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    auto hi = static_cast<std::size_t>(std::ceil(pos));
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string
runPass(const PassOptions &o)
{
    // A farm client that vanishes must not kill the in-process daemon.
    std::signal(SIGPIPE, SIG_IGN);
    fs::create_directories(o.outDir);
    WorkDir work(o.outDir);

    Workload w;
    std::optional<Outcome> out;
    PassTimes t;
    Tracer tr;
    std::map<std::string, double> layers;
    for (const LayerMetric &m : layerMetrics())
        layers[m.name] = 0.0;

    std::string fatal;
    try {
        if (!o.traced)
            untracedPass(o, work, w, out, t);
        else if (kindOf(o.workload) == Kind::Farm)
            tracedFarm(o, work, tr, w, out, t, layers);
        else
            tracedJobs(o, work, tr, w, out, t, layers);
    } catch (const std::exception &e) {
        fatal = e.what();
    }
    if (!out)
        out.emplace(w.jobs.size());
    if (!fatal.empty())
        out->fail("pass aborted: " + fatal);
    crossCheck(w, *out);
    std::string row;
    if (o.workload == "fig10" && fatal.empty())
        row = fig10Row(w, *out, o.size, o.seed);
    if (o.traced)
        tr.writeChrome(o.outDir + "/" + o.workload + ".trace.json");

    std::vector<double> jobMs;
    double simInsts = 0.0;
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
        if (out->ok[i] && out->executed[i]) {
            simInsts += out->stats[i].instructions;
            if (out->jobMs[i] > 0)
                jobMs.push_back(out->jobMs[i]);
        }

    std::string rec = "{\"workload\": " + jsonString(o.workload)
        + ", \"digest\": " + jsonString(digestOf(*out))
        + ", \"attempted\": " + std::to_string(std::max<std::size_t>(
                                    w.jobs.size(), 1))
        + ", \"failed\": " + std::to_string(out->failed)
        + ", \"wall_s\": " + jsonNumber(t.wallS)
        + ", \"cpu_s\": " + jsonNumber(t.cpuS)
        + ", \"setup_s\": " + jsonNumber(t.setupS.empty() ? 0.0
                                          : *std::min_element(
                                              t.setupS.begin(),
                                              t.setupS.end()))
        + ", \"sim_warp_insts\": " + jsonNumber(simInsts)
        + ", \"job_p50_ms\": " + jsonNumber(percentile(jobMs, 0.5))
        + ", \"job_p95_ms\": " + jsonNumber(percentile(jobMs, 0.95))
        + ", \"jobs_timed\": " + std::to_string(jobMs.size())
        + ", \"errors\": [";
    for (std::size_t i = 0; i < out->errors.size(); ++i)
        rec += (i ? ", " : "") + jsonString(out->errors[i]);
    rec += "]";
    if (!row.empty())
        rec += ", \"fig10_row\": " + row;
    if (o.traced) {
        rec += ", \"layers\": {";
        bool first = true;
        for (const auto &[name, v] : layers) {
            rec += (first ? "" : ", ") + jsonString(name) + ": "
                + jsonNumber(v);
            first = false;
        }
        rec += "}";
    }
    return rec + "}";
}

std::string
pathDigests(const PassOptions &o)
{
    std::signal(SIGPIPE, SIG_IGN);
    fs::create_directories(o.outDir);
    WorkDir work(o.outDir);
    // Client A's half of the smoke farm workload: unique tags.
    Workload w = makeWorkload("farm-overlap", Size::Smoke, o.seed);
    w.jobs.resize(w.clientAJobs);
    runner::SweepSpec spec = toSpec(w);

    auto digest = [&](const runner::SweepResult &r) {
        Outcome out(w.jobs.size());
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            out.take(i, w.jobs[i].sim.tag, r.results.at(i));
        return out.failed ? std::string("failed") : digestOf(out);
    };
    std::string digests;
    for (bool isolate : { false, true }) {
        runner::SweepOptions so;
        so.jobs = o.workers;
        so.isolate = isolate;
        so.selfExe = o.cliPath;
        digests += digest(runner::SweepEngine(so).run(spec)) + " ";
    }
    FarmRig rig(o, work.sub("farm"));
    runner::SweepResult viaFarm = rig.a->submit(spec, "paths", false);
    rig.stop();
    return digests + digest(viaFarm);
}

} // namespace scsim::bench
