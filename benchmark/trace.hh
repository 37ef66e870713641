/**
 * @file
 * In-memory span recorder for the traced benchmark pass.
 *
 * A span is one call into a layer, recorded from the benchmark's own
 * code around that call: a name (`gpu.run`, `runner.cache_store`, ...),
 * start and end on the steady clock, the span that caused it, and the
 * id of the job it belongs to, which every span of one job shares.
 * Spans stay in memory while the pass runs and are written once at
 * the end as Chrome trace-event JSON (chrome://tracing, Perfetto),
 * each carrying its self time: its duration minus what its children
 * cover.
 */

#ifndef SCSIM_BENCH_TRACE_HH
#define SCSIM_BENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace scsim::bench {

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    static constexpr int kNoParent = -1;

    struct Span
    {
        std::string name;
        std::uint64_t job = 0;  //!< shared by all spans of one job
        int parent = kNoParent;
        int tid = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = -1;  //!< -1 while open

        double ms() const { return (endNs - startNs) / 1e6; }
    };

    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Nanoseconds since this tracer was created. */
    std::int64_t now() const;

    /** Open a span; returns its handle for end() and as a parent. */
    int begin(const std::string &name, std::uint64_t job,
              int parent = kNoParent);
    void end(int span);

    /** Record an already finished span (e.g. from event timestamps). */
    int add(const std::string &name, std::uint64_t job, int parent,
            std::int64_t startNs, std::int64_t endNs);

    /** Durations (ms) of every closed span called @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Write all spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string &path) const;

  private:
    int tidLocked();

    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::thread::id, int> tids_;
};

/** RAII span: begin on construction, end on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const std::string &name, std::uint64_t job,
              int parent = Tracer::kNoParent)
        : t_(t), id_(t.begin(name, job, parent))
    {
    }
    ~SpanScope() { t_.end(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    Tracer &t_;
    int id_;
};

} // namespace scsim::bench

#endif // SCSIM_BENCH_TRACE_HH
