/**
 * @file
 * scsim_bench: the SubCoreSim benchmark.
 *
 *   scsim_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *       Measure one workload for about S seconds and print one JSON
 *       result line (end-to-end metrics, or per-layer ones with
 *       --trace 1).  The form BENCHMARK.json's command runs.
 *   scsim_bench [--seed N] [--record FILE]
 *       One set: ten untraced passes of every workload, round-robin,
 *       then one traced pass each; prints every metric and writes a
 *       record that `compare` reads.
 *   scsim_bench compare A.json B.json
 *       One verdict per workload x metric between two set records,
 *       under the bounds in BENCHMARK.json.
 *   scsim_bench --smoke
 *       Every workload at smoke size, checked; see README.md.
 *
 * Common options: --size smoke|bench|paper (default bench), --out DIR
 * (trace files and scratch; default `out/` beside the binary).
 *
 * Every pass runs in a fresh child process (`scsim_bench pass ...`),
 * so its peak RSS, read from wait4(), and its CPU time belong to that
 * pass alone.  Recording refuses to run from a non-Release or
 * sanitized build.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "json.hh"
#include "workloads.hh"

using namespace scsim::bench;

namespace {

using Clock = std::chrono::steady_clock;

const std::string kSourceDir = SCSIM_BENCH_SOURCE_DIR;
const std::string kBenchmarkJson = kSourceDir + "/../BENCHMARK.json";

/** A pass that has not finished by then is killed and counted failed. */
constexpr int kPassTimeoutSec = 150;

struct EndToEnd
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, each a median over the untraced passes. */
const std::vector<EndToEnd> kEndToEnd = {
    { "wall_s", "s" },       { "cpu_s", "s" }, { "warp_insts_per_s", "1/s" },
    { "peak_rss_mb", "MB" }, { "setup_s", "s" },
};

/** Untraced passes per workload in one set: a gain claim needs at
 *  least ten parent/change pairs. */
constexpr int kSetRounds = 10;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Bench;
    std::string out;
    std::string record;
    bool smoke = false;
    std::vector<std::string> positional;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "scsim_bench: %s\n"
                 "usage: scsim_bench --workload W [--seed N] [--seconds S]"
                 " [--trace 0|1]\n"
                 "       scsim_bench [--seed N] [--record FILE]\n"
                 "       scsim_bench compare A.json B.json\n"
                 "       scsim_bench --smoke\n"
                 "options: --size smoke|bench|paper  --out DIR\n",
                 why.c_str());
    std::exit(2);
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        throw std::runtime_error("cannot resolve /proc/self/exe");
    return std::string(buf, static_cast<std::size_t>(n));
}

int
workerCount()
{
    long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return static_cast<int>(std::clamp(n, 1L, 4L));
}

Args
parseArgs(int argc, char **argv, int first)
{
    Args a;
    a.out = selfExe();
    a.out = a.out.substr(0, a.out.rfind('/')) + "/out";
    for (int i = first; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(k + " needs a value");
            return argv[++i];
        };
        auto number = [&](double lo, double hi) {
            std::string v = value();
            char *end = nullptr;
            double d = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end || d < lo || d > hi)
                usage("bad value for " + k + ": " + v);
            return d;
        };
        if (k == "--workload") {
            a.workload = value();
            if (!isWorkload(a.workload))
                usage("unknown workload '" + a.workload + "'");
        } else if (k == "--seed") {
            std::string v = value();
            char *end = nullptr;
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("bad seed '" + v + "'");
        } else if (k == "--seconds") {
            a.seconds = number(0.0, 3600.0);
        } else if (k == "--trace") {
            a.trace = number(0, 1) != 0;
        } else if (k == "--size") {
            if (!parseSize(value(), a.size))
                usage("unknown size");
        } else if (k == "--out") {
            a.out = value();
        } else if (k == "--record") {
            a.record = value();
        } else if (k == "--smoke") {
            a.smoke = true;
        } else if (!k.empty() && k[0] == '-') {
            usage("unknown option " + k);
        } else {
            a.positional.push_back(k);
        }
    }
    return a;
}

// ---- pass processes ---------------------------------------------------

struct PassRun
{
    Json rec;
    double rssMb = 0.0;
    std::string error;  //!< non-empty: the pass process itself failed
};

/**
 * Run one pass in a child process and wait for it.  The child leads
 * its own process group, so a pass that outlives its deadline is
 * killed together with any run-job workers it spawned.
 */
PassRun
spawnPass(const Args &a, const std::string &workload, bool traced)
{
    PassRun run;
    std::vector<std::string> args = {
        selfExe(), "pass", "--workload", workload, "--seed",
        std::to_string(a.seed), "--size", toString(a.size), "--trace",
        traced ? "1" : "0", "--out", a.out,
    };
    std::vector<char *> argv;
    for (std::string &s : args)
        argv.push_back(s.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        run.error = std::string("pipe: ") + std::strerror(errno);
        return run;
    }
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid < 0) {
        run.error = std::string("fork: ") + std::strerror(errno);
        ::close(fds[0]);
        ::close(fds[1]);
        return run;
    }
    if (pid == 0) {
        ::setpgid(0, 0);
        ::dup2(fds[1], STDOUT_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::setpgid(pid, pid);
    ::close(fds[1]);

    std::string out;
    auto deadline = Clock::now() + std::chrono::seconds(kPassTimeoutSec);
    bool killed = false;
    for (;;) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
        if (left <= 0) {
            ::kill(-pid, SIGKILL);
            killed = true;
            break;
        }
        struct pollfd p = { fds[0], POLLIN, 0 };
        int rc = ::poll(&p, 1, static_cast<int>(left));
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc <= 0)
            continue;
        char buf[65536];
        ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);

    int status = 0;
    struct rusage ru = {};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    run.rssMb = ru.ru_maxrss / 1024.0;
    if (killed) {
        run.error = "pass timed out after "
            + std::to_string(kPassTimeoutSec) + " s";
        return run;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        run.error = "pass process ended with status "
            + std::to_string(status);
        return run;
    }
    while (!out.empty() && out.back() == '\n')
        out.pop_back();
    try {
        run.rec = parseJson(out.substr(out.rfind('\n') + 1));
    } catch (const std::exception &e) {
        run.error = std::string("unreadable pass record: ") + e.what();
    }
    return run;
}

// ---- aggregation ------------------------------------------------------

struct WorkloadResult
{
    std::string workload;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;
    std::string pinned = "none";  //!< none | match | MISMATCH
    std::vector<std::string> errors;
    std::map<std::string, std::vector<double>> passes;  //!< end to end
    std::map<std::string, double> layers;
    Json fig10Row;  //!< fig10 only: speedup means vs EXPERIMENTS.md
    std::size_t untraced = 0, traced = 0;

    void
    fail(const std::string &why)
    {
        correct = false;
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
    }

    double median(const std::string &m) const
    {
        auto it = passes.find(m);
        return it == passes.end() ? 0.0 : percentile(it->second, 0.5);
    }
};

/** Pinned digest for (size, workload, seed), or "" when none. */
std::string
pinnedDigest(Size size, const std::string &workload, std::uint64_t seed)
{
    static std::optional<Json> pins;
    if (!pins) {
        try {
            pins = readJsonFile(kSourceDir + "/digests.json");
        } catch (const std::exception &e) {
            std::fprintf(stderr, "scsim_bench: no pinned digests: %s\n",
                         e.what());
            pins.emplace();
        }
    }
    return (*pins)[toString(size)][workload][std::to_string(seed)].string;
}

WorkloadResult
aggregate(const Args &a, const std::string &workload,
          const std::vector<PassRun> &untraced,
          const std::vector<PassRun> &traced)
{
    WorkloadResult r;
    r.workload = workload;
    r.untraced = untraced.size();
    r.traced = traced.size();
    std::vector<double> tracedWall;
    for (const std::vector<PassRun> *group : { &untraced, &traced })
        for (const PassRun &p : *group) {
            if (!p.error.empty()) {
                ++r.attempted;
                r.fail(p.error);
                continue;
            }
            const Json &rec = p.rec;
            r.attempted += static_cast<std::uint64_t>(rec["attempted"].number);
            auto failed = static_cast<std::uint64_t>(rec["failed"].number);
            if (failed) {
                r.correct = false;
                r.failed += failed;
                for (const Json &e : rec["errors"].array)
                    if (r.errors.size() < 8)
                        r.errors.push_back(e.string);
            }
            if (r.digest.empty())
                r.digest = rec["digest"].string;
            else if (rec["digest"].string != r.digest)
                r.fail("stats digest differs between passes ("
                       + r.digest + " vs " + rec["digest"].string
                       + (group == &traced ? ", traced pass)" : ")"));
            if (rec.has("fig10_row") && !r.fig10Row.has("RBA"))
                r.fig10Row = rec["fig10_row"];
            double wall = rec["wall_s"].number;
            if (group == &traced) {
                tracedWall.push_back(wall);
                for (const auto &[k, v] : rec["layers"].object)
                    r.passes["layer:" + k].push_back(v.number);
                continue;
            }
            r.passes["wall_s"].push_back(wall);
            r.passes["cpu_s"].push_back(rec["cpu_s"].number);
            r.passes["warp_insts_per_s"].push_back(
                rec["sim_warp_insts"].number / std::max(wall, 1e-9));
            r.passes["job_p50_ms"].push_back(rec["job_p50_ms"].number);
            r.passes["job_p95_ms"].push_back(rec["job_p95_ms"].number);
            r.passes["peak_rss_mb"].push_back(p.rssMb);
            r.passes["setup_s"].push_back(rec["setup_s"].number);
        }

    std::string pin = pinnedDigest(a.size, workload, a.seed);
    if (!pin.empty() && !r.digest.empty()) {
        r.pinned = pin == r.digest ? "match" : "MISMATCH";
        if (pin != r.digest)
            r.fail("stats digest " + r.digest + " != pinned " + pin
                   + " for seed " + std::to_string(a.seed));
    }
    for (const LayerMetric &m : layerMetrics())
        r.layers[m.name] = r.median(std::string("layer:") + m.name);
    // Per-job times come from the untraced passes, like wall_s.
    r.layers["runner.job_p50_ms"] = r.median("job_p50_ms");
    r.layers["runner.job_p95_ms"] = r.median("job_p95_ms");
    double untracedWall = r.median("wall_s");
    if (!tracedWall.empty() && untracedWall > 0)
        r.layers["trace_overhead_frac"] =
            percentile(tracedWall, 0.5) / untracedWall - 1.0;
    return r;
}

// ---- output -----------------------------------------------------------

std::string
readFirstLine(const char *cmd)
{
    std::string line;
    if (std::FILE *p = ::popen(cmd, "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p))
            line = buf;
        ::pclose(p);
    }
    while (!line.empty() && (line.back() == '\n' || line.back() == ' '))
        line.pop_back();
    return line;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/** Host, build and run identity every record carries. */
std::string
metadataJson(const Args &a)
{
    std::string git = readFirstLine(
        ("git -C '" + kSourceDir
         + "/..' describe --always --dirty --abbrev=40 2>/dev/null")
            .c_str());
    double load[1] = { 0.0 };
    ::getloadavg(load, 1);
    char date[32];
    std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ",
                  std::gmtime(&now));
#ifdef __clang__
    std::string compiler = "clang " __clang_version__;
#else
    std::string compiler = "g++ " __VERSION__;
#endif
    return "{\"git\": " + jsonString(git.empty() ? "unknown" : git)
        + ", \"cpu\": " + jsonString(cpuModel())
        + ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))
        + ", \"workers\": " + std::to_string(workerCount())
        + ", \"compiler\": " + jsonString(compiler)
        + ", \"build_type\": " + jsonString(SCSIM_BENCH_BUILD_TYPE)
        + ", \"seed\": " + std::to_string(a.seed)
        + ", \"size\": " + jsonString(toString(a.size))
        + ", \"loadavg_1m\": " + jsonNumber(load[0])
        + ", \"date\": " + jsonString(date) + "}";
}

bool
recordingAllowed()
{
    std::string type = SCSIM_BENCH_BUILD_TYPE;
    std::string sanitize = SCSIM_BENCH_SANITIZE;
    if (type == "Release" && sanitize.empty())
        return true;
    std::fprintf(stderr,
                 "scsim_bench: refusing to record from a %s build%s%s; "
                 "reconfigure with -DCMAKE_BUILD_TYPE=Release and no "
                 "SCSIM_SANITIZE\n",
                 type.empty() ? "(no build type)" : type.c_str(),
                 sanitize.empty() ? "" : " sanitized with ",
                 sanitize.c_str());
    return false;
}

/** `{"name": {"value": v, "unit": u}, ...}` for one metric family. */
std::string
metricsJson(const WorkloadResult &r, bool layers)
{
    std::string s = "{";
    auto add = [&](const std::string &name, double v, const char *unit) {
        s += (s.size() > 1 ? ", " : "") + jsonString(name)
            + ": {\"value\": " + jsonNumber(v)
            + ", \"unit\": " + jsonString(unit) + "}";
    };
    if (layers)
        for (const LayerMetric &m : layerMetrics())
            add(m.name, r.layers.at(m.name), m.unit);
    else
        for (const EndToEnd &m : kEndToEnd)
            add(m.name, r.median(m.name), m.unit);
    return s + "}";
}

std::string
passesJson(const WorkloadResult &r)
{
    std::string s = "{";
    for (const EndToEnd &m : kEndToEnd) {
        s += (s.size() > 1 ? ", " : "") + jsonString(m.name)
            + ": {\"unit\": " + jsonString(m.unit)
            + ", \"value\": " + jsonNumber(r.median(m.name))
            + ", \"passes\": [";
        auto it = r.passes.find(m.name);
        if (it != r.passes.end())
            for (std::size_t i = 0; i < it->second.size(); ++i)
                s += (i ? ", " : "") + jsonNumber(it->second[i]);
        s += "]}";
    }
    return s + "}";
}

std::string
errorsJson(const WorkloadResult &r)
{
    std::string s = "[";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        s += (i ? ", " : "") + jsonString(r.errors[i]);
    return s + "]";
}

/** Human-readable report of one workload, on stderr. */
void
printHuman(const WorkloadResult &r, bool layers)
{
    std::fprintf(stderr, "== %s: %s, %zu untraced + %zu traced passes, "
                 "digest %s (pinned: %s), %llu/%llu jobs failed\n",
                 r.workload.c_str(), r.correct ? "correct" : "INCORRECT",
                 r.untraced, r.traced, r.digest.c_str(), r.pinned.c_str(),
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.attempted));
    for (const std::string &e : r.errors)
        std::fprintf(stderr, "   error: %s\n", e.c_str());
    if (r.untraced)
        for (const EndToEnd &m : kEndToEnd)
            std::fprintf(stderr, "   %-30s %14.6g %s\n", m.name,
                         r.median(m.name), m.unit);
    if (layers && r.traced)
        for (const LayerMetric &m : layerMetrics())
            std::fprintf(stderr, "   %-30s %14.6g %s\n", m.name,
                         r.layers.at(m.name), m.unit);
    if (r.fig10Row.has("RBA")) {
        std::fprintf(stderr, "   fig10 speedup means (measured / "
                     "EXPERIMENTS.md at paper size, seed 0):\n");
        for (const auto &[design, v] : r.fig10Row.object)
            if (v.type == Json::Type::Object)
                std::fprintf(stderr, "     %-16s %.3f / %.3f\n",
                             design.c_str(), v["measured"].number,
                             v["experiments"].number);
        std::fprintf(stderr, "     loss recovered   %.1f%% (paper ~81%%)\n",
                     100.0 * r.fig10Row["loss_recovered"].number);
    }
}

// ---- modes ------------------------------------------------------------

/** The BENCHMARK.json form: passes of one workload for ~S seconds. */
int
runWorkload(const Args &a)
{
    if (!recordingAllowed())
        return 2;
    std::string meta = metadataJson(a);
    std::vector<PassRun> untraced, traced;
    auto start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    // Start another pass (pair, when traced) only if it is expected to
    // finish inside the budget; always run at least one.  A pass that
    // failed to run ends the run: its time says nothing about the next.
    for (double last = 0.0;
         untraced.empty() || elapsed() + last <= a.seconds;) {
        double t0 = elapsed();
        untraced.push_back(spawnPass(a, a.workload, false));
        if (!untraced.back().error.empty())
            break;
        if (a.trace) {
            traced.push_back(spawnPass(a, a.workload, true));
            if (!traced.back().error.empty())
                break;
        }
        last = elapsed() - t0;
    }
    WorkloadResult r = aggregate(a, a.workload, untraced, traced);
    printHuman(r, a.trace);
    std::printf("{\"meta\": %s, \"workload\": %s, \"digest\": %s, "
                "\"pinned\": %s, \"passes\": %zu, \"traced_passes\": %zu, "
                "\"errors\": %s}\n",
                meta.c_str(), jsonString(a.workload).c_str(),
                jsonString(r.digest).c_str(), jsonString(r.pinned).c_str(),
                r.untraced, r.traced, errorsJson(r).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    r.attempted, 1)),
                static_cast<unsigned long long>(r.failed),
                metricsJson(r, a.trace).c_str());
    return r.correct ? 0 : 1;
}

/** One set: rounds of untraced passes round-robin, then one traced
 *  pass per workload; writes the record `compare` reads. */
int
runSet(const Args &a)
{
    if (!recordingAllowed())
        return 2;
    std::string meta = metadataJson(a);
    std::map<std::string, std::vector<PassRun>> untraced, traced;
    for (int round = 0; round < kSetRounds; ++round)
        for (const std::string &w : workloadNames())
            untraced[w].push_back(spawnPass(a, w, false));
    for (const std::string &w : workloadNames())
        traced[w].push_back(spawnPass(a, w, true));

    bool correct = true;
    std::string rec = "{\"meta\": " + meta + ", \"workloads\": {";
    for (const std::string &w : workloadNames()) {
        WorkloadResult r = aggregate(a, w, untraced[w], traced[w]);
        printHuman(r, true);
        correct = correct && r.correct;
        rec += std::string(rec.back() == '{' ? "" : ", ")
            + jsonString(w) + ": {\"correct\": "
            + (r.correct ? "true" : "false")
            + ", \"attempted\": " + std::to_string(r.attempted)
            + ", \"failed\": " + std::to_string(r.failed)
            + ", \"digest\": " + jsonString(r.digest)
            + ", \"pinned\": " + jsonString(r.pinned)
            + ", \"errors\": " + errorsJson(r)
            + ", \"end_to_end\": " + passesJson(r)
            + ", \"per_layer\": " + metricsJson(r, true) + "}";
    }
    rec += "}}\n";
    std::filesystem::create_directories(a.out);
    std::string path = a.record.empty() ? a.out + "/record.json" : a.record;
    std::ofstream(path, std::ios::trunc) << rec;
    std::fprintf(stderr, "record written to %s\n", path.c_str());
    return correct ? 0 : 1;
}

/** Quartiles as Python's statistics.quantiles(v, n=4) gives them. */
std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        return { v.empty() ? 0.0 : v[0], v.empty() ? 0.0 : v[0] };
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size()), m = n + 1;
    auto q = [&](long i) {
        long j = std::clamp(i * m / 4, 1L, n - 1);
        long delta = i * m - j * 4;
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
    };
    return { q(1), q(3) };
}

double
relSpread(const std::vector<double> &v)
{
    auto [q1, q3] = quartiles(v);
    double med = percentile(v, 0.5);
    return med != 0 ? (q3 - q1) / std::fabs(med) : 0.0;
}

/**
 * Verdict for parent passes @p a vs change passes @p b: unresolved
 * when the spread is wider than the bound unless every change pass
 * beats every parent pass; worse past the bound; better only with at least ten pairs, of
 * which the change wins nine tenths, and medians further apart than
 * the parent's own quartile spread.
 */
const char *
verdict(const std::vector<double> &a, const std::vector<double> &b,
        bool lowerIsBetter, double bound)
{
    if (a.empty() || b.empty())
        return "unresolved";
    auto better = [&](double x, double y) {
        return lowerIsBetter ? x < y : x > y;
    };
    double ma = percentile(a, 0.5), mb = percentile(b, 0.5);
    bool allBetter = true;
    for (double x : b)
        for (double y : a)
            allBetter = allBetter && better(x, y);
    std::size_t pairs = std::min(a.size(), b.size()), wins = 0;
    for (std::size_t i = 0; i < pairs; ++i)
        wins += better(b[i], a[i]);
    auto [q1, q3] = quartiles(a);
    bool gain = pairs >= 10 && wins * 10 >= pairs * 9
        && std::fabs(mb - ma) > q3 - q1 && better(mb, ma);
    if (std::max(relSpread(a), relSpread(b)) > bound)
        return !allBetter ? "unresolved" : gain ? "better" : "unchanged";
    double worse = (lowerIsBetter ? mb - ma : ma - mb) / std::fabs(ma);
    if (worse > bound)
        return "worse";
    return gain ? "better" : "unchanged";
}

int
compare(const Args &a)
{
    if (a.positional.size() != 2)
        usage("compare needs two record files");
    Json A = readJsonFile(a.positional[0]);
    Json B = readJsonFile(a.positional[1]);
    Json bench = readJsonFile(kBenchmarkJson);
    int worse = 0;
    std::printf("%-15s %-26s %14s %14s %8s %7s %6s  %s\n", "workload",
                "metric", "A", "B", "delta", "spread", "bound", "verdict");
    auto row = [&](const std::string &w, const std::string &m, double va,
                   double vb, double spread, double bound,
                   const char *v) {
        worse += std::strcmp(v, "worse") == 0;
        std::printf("%-15s %-26s %14.6g %14.6g %+7.1f%% %6.1f%% %5.0f%%  "
                    "%s\n",
                    w.c_str(), m.c_str(), va, vb,
                    va != 0 ? 100.0 * (vb - va) / std::fabs(va) : 0.0,
                    100.0 * spread, 100.0 * bound, v);
    };
    for (const auto &[w, wa] : A["workloads"].object) {
        const Json &wb = B["workloads"][w];
        if (wb.type != Json::Type::Object)
            continue;
        bool same = wa["digest"].string == wb["digest"].string;
        std::printf("%-15s %-26s %14s %14s %8s %7s %6s  %s\n", w.c_str(),
                    "digest", wa["digest"].string.c_str(),
                    wb["digest"].string.c_str(), "", "", "exact",
                    same ? "unchanged" : "worse");
        worse += !same;
        for (const Json &m : bench["end_to_end"].array) {
            const std::string &name = m["name"].string;
            std::vector<double> pa, pb;
            for (const Json &x : wa["end_to_end"][name]["passes"].array)
                pa.push_back(x.number);
            for (const Json &x : wb["end_to_end"][name]["passes"].array)
                pb.push_back(x.number);
            row(w, name, percentile(pa, 0.5), percentile(pb, 0.5),
                std::max(relSpread(pa), relSpread(pb)),
                m["bound"].number,
                verdict(pa, pb, m["better"].string == "lower",
                        m["bound"].number));
        }
        for (const LayerMetric &m : layerMetrics()) {
            if (!m.exact)
                continue;
            double va = wa["per_layer"][m.name]["value"].number;
            double vb = wb["per_layer"][m.name]["value"].number;
            row(w, m.name, va, vb, 0.0, 0.0,
                va == vb ? "unchanged" : "worse");
        }
    }
    return worse ? 1 : 0;
}

/** Every workload at smoke size plus the three-path agreement check. */
int
smoke(Args a)
{
    a.size = Size::Smoke;
    Json bench = readJsonFile(kBenchmarkJson);
    int failures = 0;
    auto check = [&](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        failures += !ok;
    };
    check(bench["end_to_end"].array.size() == kEndToEnd.size()
              && bench["per_layer"].array.size() == layerMetrics().size(),
          "BENCHMARK.json names as many metrics as are reported");
    for (const std::string &name : workloadNames()) {
        std::vector<PassRun> untraced = { spawnPass(a, name, false) };
        std::vector<PassRun> traced = { spawnPass(a, name, true) };
        WorkloadResult r = aggregate(a, name, untraced, traced);
        printHuman(r, true);
        check(r.correct && r.untraced == 1 && r.traced == 1,
              name + ": passes ran, no failed job, traced digest == "
                     "untraced digest");
        Json e2e = parseJson(metricsJson(r, false));
        for (const Json &m : bench["end_to_end"].array)
            check(e2e[m["name"].string]["unit"].string == m["unit"].string
                      && e2e[m["name"].string]["value"].number > 0,
                  name + ": " + m["name"].string + " > 0 in "
                      + m["unit"].string);
        Json layers = parseJson(metricsJson(r, true));
        for (const Json &m : bench["per_layer"].array)
            check(layers[m["name"].string]["unit"].string
                      == m["unit"].string,
                  name + ": " + m["name"].string + " in "
                      + m["unit"].string);
    }
    PassOptions o;
    o.outDir = a.out;
    o.cliPath = SCSIM_CLI_PATH;
    o.workers = workerCount();
    std::string d = pathDigests(o);
    std::string first = d.substr(0, d.find(' '));
    check(first != "failed" && d == first + " " + first + " " + first,
          "in-process, isolated and farm digests agree: " + d);
    return failures ? 1 : 0;
}

int
passMain(const Args &a)
{
    PassOptions o;
    o.workload = a.workload;
    o.seed = a.seed;
    o.size = a.size;
    o.traced = a.trace;
    o.outDir = a.out;
    o.cliPath = SCSIM_CLI_PATH;
    o.workers = workerCount();
    std::printf("%s\n", runPass(o).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::string mode = argc > 1 ? argv[1] : "";
        if (mode == "pass" || mode == "compare") {
            Args a = parseArgs(argc, argv, 2);
            if (mode == "compare")
                return compare(a);
            if (a.workload.empty())
                usage("pass needs --workload");
            return passMain(a);
        }
        Args a = parseArgs(argc, argv, 1);
        if (!a.positional.empty())
            usage("unexpected argument '" + a.positional[0] + "'");
        if (a.smoke)
            return smoke(a);
        return a.workload.empty() ? runSet(a) : runWorkload(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "scsim_bench: %s\n", e.what());
        return 1;
    }
}
