/**
 * @file
 * Content-addressed simulation result cache.
 *
 * Results are stored twice: an in-memory map for hits within one
 * process, and (when a directory is configured) one text file per key
 * on disk so re-running a figure after an unrelated code change skips
 * every already-computed point.  Disk entries are written to a
 * temporary file and renamed into place, so concurrent writers and
 * torn writes can never corrupt a visible entry.
 *
 * Integrity: every entry carries an FNV-1a checksum of its payload in
 * the header line.  A checksum or parse failure quarantines the file
 * to `<key>.corrupt` (with a warning) and degrades to a cache miss,
 * so the job transparently re-runs; a version-skewed entry (written
 * by an older or newer format) is a plain miss.  Transient I/O
 * faults — including injected ones (common/fault_inject.hh) — throw
 * CacheError, which callers retry with bounded backoff
 * (retryTransient).
 *
 * Layout: `<dir>/<16-hex-digit key>.stats`, one file per result, in a
 * line-oriented `key value` format (see serializeStats in
 * runner/wire.hh, which owns the record framing shared with the
 * subprocess IPC and the sweep resume journal).
 */

#ifndef SCSIM_RUNNER_RESULT_CACHE_HH
#define SCSIM_RUNNER_RESULT_CACHE_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "runner/wire.hh"
#include "stats/stats.hh"

namespace scsim::runner {

/**
 * Run @p fn, retrying a CacheError up to 3 attempts in all with
 * doubling backoff.  Exhausting the attempts rethrows; the caller
 * decides how that degrades (a cache or journal fault never fails a
 * job).
 */
void retryTransient(const char *what, const std::function<void()> &fn);

class ResultCache
{
  public:
    /** Memory-only cache. */
    ResultCache() = default;

    /**
     * Memory + disk cache rooted at @p dir (created if absent;
     * throws CacheError when creation fails).  @p maxDiskBytes, when
     * nonzero, caps the on-disk footprint: after every store the
     * directory is trimmed back under the cap, evicting
     * least-recently-used entries (by mtime — disk hits touch their
     * entry) and pruning quarantined `.corrupt` files first.  A
     * long-lived daemon can therefore never grow the cache without
     * bound.  The cap governs the disk only; in-memory entries are
     * untouched.
     */
    explicit ResultCache(std::string dir,
                         std::uint64_t maxDiskBytes = 0);

    /**
     * True (and fills @p out) if @p key is cached in memory or disk.
     * Corrupt disk entries are quarantined and read as misses.
     * Throws CacheError on a (possibly transient) disk read fault.
     */
    bool lookup(std::uint64_t key, SimStats &out);

    /**
     * Record @p stats under @p key in memory and, if set, on disk.
     * The in-memory entry is recorded even when the disk write
     * throws CacheError, so a retry only repeats the I/O.
     */
    void store(std::uint64_t key, const SimStats &stats);

    const std::string &dir() const { return dir_; }

    // Counters (monotonic, thread-safe via the cache mutex).
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t quarantined() const;
    std::uint64_t evicted() const;

    /** Current on-disk footprint (stats + corrupt files), in bytes. */
    std::uint64_t diskBytes() const;

    /** The configured disk cap; 0 = unbounded. */
    std::uint64_t maxDiskBytes() const { return maxDiskBytes_; }

  private:
    std::string pathFor(std::uint64_t key) const;

    /** Re-scan the directory and evict down to the cap (locked). */
    void trimLocked();

    std::string dir_;
    std::uint64_t maxDiskBytes_ = 0;
    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, SimStats> memory_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t quarantined_ = 0;
    std::uint64_t evicted_ = 0;
    std::uint64_t diskBytes_ = 0;
};

} // namespace scsim::runner

#endif // SCSIM_RUNNER_RESULT_CACHE_HH
