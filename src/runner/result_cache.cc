#include "runner/result_cache.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/fault_inject.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "runner/job_key.hh"

namespace scsim::runner {

namespace {

namespace fs = std::filesystem;

bool
isCacheFile(const fs::path &p)
{
    return p.extension() == ".stats" || p.extension() == ".corrupt";
}

} // namespace

void
retryTransient(const char *what, const std::function<void()> &fn)
{
    constexpr int kAttempts = 3;
    for (int attempt = 1;; ++attempt) {
        try {
            fn();
            return;
        } catch (const CacheError &e) {
            if (attempt >= kAttempts)
                throw;
            scsim_warn("%s failed (attempt %d/%d), backing off: %s",
                       what, attempt, kAttempts, e.what());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1LL << attempt));
        }
    }
}

ResultCache::ResultCache(std::string dir, std::uint64_t maxDiskBytes)
    : dir_(std::move(dir)), maxDiskBytes_(maxDiskBytes)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        scsim_throw(CacheError, "cannot create cache directory '%s': %s",
                    dir_.c_str(), ec.message().c_str());
    std::lock_guard lock(mutex_);
    trimLocked();
}

std::string
ResultCache::pathFor(std::uint64_t key) const
{
    return dir_ + "/" + keyToHex(key) + ".stats";
}

bool
ResultCache::lookup(std::uint64_t key, SimStats &out)
{
    std::lock_guard lock(mutex_);
    if (auto it = memory_.find(key); it != memory_.end()) {
        out = it->second;
        ++hits_;
        return true;
    }
    if (!dir_.empty()) {
        if (FaultInjector::instance().shouldFailCacheRead())
            scsim_throw(CacheError, "injected cache read fault for key %s",
                        keyToHex(key).c_str());
        std::ifstream in(pathFor(key));
        if (in) {
            std::ostringstream text;
            text << in.rdbuf();
            SimStats s;
            switch (decodeStats(text.str(), s)) {
              case WireDecode::Ok: {
                if (maxDiskBytes_) {
                    // Touch the entry so LRU-by-mtime trimming sees
                    // disk hits as recent use.  Best-effort: a failed
                    // touch only ages the entry.
                    std::error_code ec;
                    std::filesystem::last_write_time(
                        pathFor(key),
                        std::filesystem::file_time_type::clock::now(),
                        ec);
                }
                memory_.emplace(key, s);
                out = std::move(s);
                ++hits_;
                return true;
              }
              case WireDecode::VersionSkew:
                // Another format version: a legitimate miss; the
                // re-run overwrites the stale entry.
                break;
              case WireDecode::Corrupt: {
                // Move the damaged file aside so the evidence
                // survives and the re-run's write cannot be
                // mistaken for the bad entry.
                std::string quarantine =
                    dir_ + "/" + keyToHex(key) + ".corrupt";
                std::error_code ec;
                std::filesystem::rename(pathFor(key), quarantine, ec);
                if (ec)
                    std::filesystem::remove(pathFor(key), ec);
                ++quarantined_;
                scsim_warn("quarantined corrupt cache entry %s -> %s; "
                           "re-running job", pathFor(key).c_str(),
                           quarantine.c_str());
                break;
              }
            }
        }
    }
    ++misses_;
    return false;
}

void
ResultCache::store(std::uint64_t key, const SimStats &stats)
{
    std::lock_guard lock(mutex_);
    memory_.insert_or_assign(key, stats);
    if (dir_.empty())
        return;
    if (FaultInjector::instance().shouldFailCacheWrite())
        scsim_throw(CacheError, "injected cache write fault for key %s",
                    keyToHex(key).c_str());
    std::string path = pathFor(key);
    std::string tmp = path + ".tmp" + keyToHex(key);
    {
        std::ofstream outFile(tmp, std::ios::trunc);
        if (!outFile)
            scsim_throw(CacheError, "cannot write cache entry %s",
                        tmp.c_str());
        outFile << serializeStats(stats);
        if (!outFile.good())
            scsim_throw(CacheError, "short write to cache entry %s",
                        tmp.c_str());
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::error_code rmEc;
        std::filesystem::remove(tmp, rmEc);
        scsim_throw(CacheError, "cannot finalize cache entry %s: %s",
                    path.c_str(), ec.message().c_str());
    }
    if (maxDiskBytes_)
        trimLocked();
}

void
ResultCache::trimLocked()
{
    struct Entry
    {
        fs::path path;
        std::uint64_t bytes;
        fs::file_time_type mtime;
        bool corrupt;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;

    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir_, ec)) {
        if (!isCacheFile(de.path()))
            continue;
        std::error_code fec;
        std::uint64_t bytes = de.file_size(fec);
        fs::file_time_type mtime = de.last_write_time(fec);
        if (fec)
            continue;  // vanished between listing and stat
        total += bytes;
        entries.push_back({ de.path(), bytes, mtime,
                            de.path().extension() == ".corrupt" });
    }
    diskBytes_ = total;
    if (!maxDiskBytes_ || total <= maxDiskBytes_)
        return;

    // Evict quarantined wreckage first (its only value is forensic),
    // then least-recently-used live entries.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry &a, const Entry &b) {
                         if (a.corrupt != b.corrupt)
                             return a.corrupt;
                         return a.mtime < b.mtime;
                     });
    for (const Entry &e : entries) {
        if (total <= maxDiskBytes_)
            break;
        std::error_code rmEc;
        if (!fs::remove(e.path, rmEc) || rmEc)
            continue;
        total -= std::min(total, e.bytes);
        ++evicted_;
    }
    diskBytes_ = total;
}

std::uint64_t
ResultCache::hits() const
{
    std::lock_guard lock(mutex_);
    return hits_;
}

std::uint64_t
ResultCache::misses() const
{
    std::lock_guard lock(mutex_);
    return misses_;
}

std::uint64_t
ResultCache::quarantined() const
{
    std::lock_guard lock(mutex_);
    return quarantined_;
}

std::uint64_t
ResultCache::evicted() const
{
    std::lock_guard lock(mutex_);
    return evicted_;
}

std::uint64_t
ResultCache::diskBytes() const
{
    if (dir_.empty())
        return 0;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir_, ec)) {
        if (!isCacheFile(de.path()))
            continue;
        std::error_code fec;
        std::uint64_t bytes = de.file_size(fec);
        if (!fec)
            total += bytes;
    }
    return total;
}

} // namespace scsim::runner
