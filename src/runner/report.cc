#include "runner/report.hh"

#include <cinttypes>
#include <fstream>

#include "common/logging.hh"
#include "common/text_escape.hh"
#include "runner/dispatcher.hh"
#include "runner/job_key.hh"

namespace scsim::runner {

namespace {

std::string
fmtU64(std::uint64_t v)
{
    return detail::format("%" PRIu64, v);
}

std::string
fmtDouble(double v)
{
    return detail::format("%.17g", v);
}

/** The manifest's per-job stat columns, shared by JSON and CSV. */
const std::pair<const char *, std::uint64_t SimStats::*> kCounters[] = {
    { "cycles", &SimStats::cycles },
    { "instructions", &SimStats::instructions },
    { "threadInstructions", &SimStats::threadInstructions },
    { "rfReads", &SimStats::rfReads },
    { "rfWrites", &SimStats::rfWrites },
    { "rfBankConflictCycles", &SimStats::rfBankConflictCycles },
    { "collectorFullStalls", &SimStats::collectorFullStalls },
    { "stallNoWarp", &SimStats::stallNoWarp },
    { "stallScoreboard", &SimStats::stallScoreboard },
    { "stallNoCu", &SimStats::stallNoCu },
    { "l1Accesses", &SimStats::l1Accesses },
    { "l1Misses", &SimStats::l1Misses },
    { "l2Accesses", &SimStats::l2Accesses },
    { "l2Misses", &SimStats::l2Misses },
    { "blocksCompleted", &SimStats::blocksCompleted },
    { "warpsCompleted", &SimStats::warpsCompleted },
    { "assignSpills", &SimStats::assignSpills },
    { "warpMigrations", &SimStats::warpMigrations },
};

} // namespace

std::string
jsonManifest(const SweepSpec &spec, const SweepResult &res)
{
    scsim_assert(spec.jobs.size() == res.results.size(),
                 "manifest spec/result size mismatch");
    std::string out;
    out += "{\n";
    out += detail::format(
        "  \"schema\": \"scsim-sweep-manifest\",\n"
        "  \"version\": %d,\n"
        "  \"jobCount\": %zu,\n"
        "  \"jobs\": [\n",
        kManifestVersion, spec.jobs.size());

    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const SimJob &job = spec.jobs[i];
        const JobResult &r = res.results[i];
        out += "    {\n";
        out += "      \"tag\": \"" + jsonEscape(job.tag) + "\",\n";
        out += "      \"app\": \"" + jsonEscape(job.app.name) + "\",\n";
        out += "      \"suite\": \"" + jsonEscape(job.app.suite)
            + "\",\n";
        out += "      \"key\": \"" + keyToHex(r.key) + "\",\n";
        out += detail::format("      \"status\": \"%s\",\n",
                              manifestStatus(r.status));
        out += "      \"error\": \"" + jsonEscape(r.error) + "\",\n";
        out += detail::format(
            "      \"signal\": %d,\n      \"exitCode\": %d,\n",
            r.termSignal, r.exitCode);
        out += detail::format(
            "      \"config\": {\"numSms\": %d, \"subCores\": %d, "
            "\"scheduler\": \"%s\", \"assign\": \"%s\", "
            "\"salt\": %s, \"concurrent\": %s},\n",
            job.cfg.numSms, job.cfg.subCores,
            toString(job.cfg.scheduler), toString(job.cfg.assign),
            fmtU64(job.salt).c_str(),
            job.concurrent ? "true" : "false");
        out += "      \"stats\": {";
        bool first = true;
        for (const auto &[name, member] : kCounters) {
            if (!first)
                out += ", ";
            first = false;
            out += '"';
            out += name;
            out += "\": " + fmtU64(r.stats.*member);
        }
        out += ", \"ipc\": " + fmtDouble(r.stats.ipc());
        out += ", \"issueCov\": " + fmtDouble(r.stats.issueCov());
        out += "}\n";
        out += i + 1 < spec.jobs.size() ? "    },\n" : "    }\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
csvManifest(const SweepSpec &spec, const SweepResult &res)
{
    scsim_assert(spec.jobs.size() == res.results.size(),
                 "manifest spec/result size mismatch");
    std::string out = "tag,app,suite,key,status,error,signal,exitCode,"
                      "numSms,subCores,scheduler,assign,salt,concurrent";
    for (const auto &[name, member] : kCounters) {
        (void)member;
        out += ',';
        out += name;
    }
    out += ",ipc,issueCov\n";

    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const SimJob &job = spec.jobs[i];
        const JobResult &r = res.results[i];
        out += csvField(job.tag) + ',' + csvField(job.app.name) + ','
            + csvField(job.app.suite) + ',' + keyToHex(r.key);
        out += ',';
        out += manifestStatus(r.status);
        out += ',' + csvField(r.error);
        out += detail::format(",%d,%d", r.termSignal, r.exitCode);
        out += detail::format(",%d,%d,%s,%s,%s,%d", job.cfg.numSms,
                              job.cfg.subCores,
                              toString(job.cfg.scheduler),
                              toString(job.cfg.assign),
                              fmtU64(job.salt).c_str(),
                              job.concurrent ? 1 : 0);
        for (const auto &[name, member] : kCounters) {
            (void)name;
            out += ',' + fmtU64(r.stats.*member);
        }
        out += ',' + fmtDouble(r.stats.ipc());
        out += ',' + fmtDouble(r.stats.issueCov());
        out += '\n';
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        scsim_fatal("cannot write '%s'", path.c_str());
    out << text;
    if (!out.good())
        scsim_fatal("short write to '%s'", path.c_str());
}

std::string
summaryLine(const SweepResult &res, int jobs)
{
    std::string line = detail::format(
        "%zu jobs (%" PRIu64 " simulated, %" PRIu64 " cached) in "
        "%.1fs on %d worker%s",
        res.results.size(), res.executed, res.cacheHits,
        res.wallMs / 1e3, resolveJobs(jobs),
        resolveJobs(jobs) == 1 ? "" : "s");
    if (res.resumed)
        line += detail::format(", %" PRIu64 " resumed", res.resumed);
    if (res.failed)
        line += detail::format(", %" PRIu64 " FAILED", res.failed);
    if (res.skipped)
        line += detail::format(", %" PRIu64 " skipped", res.skipped);
    return line;
}

} // namespace scsim::runner
