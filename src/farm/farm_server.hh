/**
 * @file
 * The sweep farm daemon behind `scsim_cli serve`.
 *
 * One poll() loop owns every socket: the Unix/TCP listeners, each
 * client session, and a self-pipe the dispatcher's worker threads (and
 * signal handlers) write to.  All protocol work — frame reassembly,
 * submission validation, journal appends, result streaming — happens
 * on this one thread, so sweeps, sessions and journals need no locks
 * of their own; only the dispatcher's completion queue crosses the
 * thread boundary.
 *
 * Sweep lifecycle: a submit is validated whole (runner::validateSpec,
 * exactly as a local SweepEngine run), adopted from its
 * spec-hash-pinned journal in the state directory when the client
 * asked to resume (runner::adoptJournal), acknowledged with
 * scsim-accept, and its remaining jobs handed to the shared
 * runner::Dispatcher — the same job-execution core a local sweep
 * uses, here always with crash-isolated workers.  Every finished job is durably journaled before
 * its scsim-jobdone is streamed, so a daemon crash or SIGKILL'd sweep
 * resumes from the last fsync.  A client that disconnects mid-sweep
 * detaches it — the jobs keep running and keep journaling, which is
 * also exactly what `submit --detach` asks for from the start.
 *
 * Shutdown (stop(), async-signal-safe): in-flight jobs finish and are
 * journaled; unclaimed jobs are abandoned for a later `--resume`.
 */

#ifndef SCSIM_FARM_FARM_SERVER_HH
#define SCSIM_FARM_FARM_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "farm/protocol.hh"
#include "farm/socket.hh"
#include "runner/dispatcher.hh"
#include "runner/journal.hh"
#include "runner/result_cache.hh"
#include "runner/wire.hh"

namespace scsim::farm {

struct FarmServerOptions
{
    std::string socketPath;  //!< Unix socket; empty = no Unix listener
    int tcpPort = -1;        //!< loopback TCP; -1 = none, 0 = ephemeral

    int workers = 4;
    std::string cacheDir;            //!< shared result cache
    std::uint64_t cacheMaxBytes = 0; //!< disk cap; 0 = unbounded

    /** Journal directory (one `<spec-hash>.journal` per sweep spec);
     *  empty disables journaling and `--resume`. */
    std::string stateDir;

    double jobTimeoutSec = 0.0;  //!< per-job deadline; 0 = none
    int crashAttempts = 3;       //!< spawns before a crash is final
    std::string selfExe;         //!< run-job binary; empty = self
    bool quiet = false;          //!< suppress per-event inform lines

    /**
     * Worker snapshot period (simulated cycles); 0 = off.  Snapshots
     * land in `<stateDir>/snapshots`, so checkpointing requires a
     * state directory; a daemon restart or killed worker then resumes
     * an in-flight job from its snapshot instead of cycle 0.
     */
    std::uint64_t checkpointCycles = 0;

    // ---- admission control & liveness ---------------------------------

    /**
     * Cap on jobs queued + in flight across all sweeps; a submission
     * that would push past it gets scsim-busy ("queue-full") instead
     * of being admitted.  0 = unbounded (the pre-v2 behaviour).
     */
    std::uint64_t maxQueuedJobs = 0;

    /** Cap on concurrently active sweeps submitted by one connection;
     *  over it, scsim-busy ("client-cap").  0 = unbounded. */
    std::uint64_t maxSweepsPerClient = 0;

    /**
     * Disconnect a connection that owns no active sweep and has been
     * silent this long (slow-loris defense: a peer that connects and
     * trickles or sends nothing cannot hold an fd forever).  0 = off.
     */
    double idleTimeoutSec = 0.0;

    /**
     * Cap on bytes buffered for one session awaiting POLLOUT.  A
     * client that stops reading while its results stream would
     * otherwise grow this without bound; at the cap the session is
     * disconnected and its sweeps detach (jobs keep running and
     * journaling — `submit --resume` recovers them).  0 = unbounded.
     */
    std::uint64_t maxWriteBufferBytes = 32u << 20;

    /** listen(2) backlog for both listeners. */
    int listenBacklog = kDefaultListenBacklog;

    /** Kernel SO_SNDBUF for accepted sessions; 0 = OS default.  An
     *  ops/test knob: shrinking it makes maxWriteBufferBytes — not
     *  megabytes of kernel buffering — decide when a slow reader is
     *  shed. */
    int sndbufBytes = 0;
};

class FarmServer
{
  public:
    /** Binds the listeners and starts the worker pool; throws
     *  SimError when the socket path or port is unusable. */
    explicit FarmServer(FarmServerOptions opts);
    ~FarmServer();

    FarmServer(const FarmServer &) = delete;
    FarmServer &operator=(const FarmServer &) = delete;

    /** Serve until stop(); returns after the workers are joined. */
    void run();

    /**
     * Request shutdown.  Safe to call from any thread and from a
     * signal handler (it only flips an atomic and writes one byte to
     * the wake pipe).
     */
    void stop();

    /**
     * Request a graceful drain: stop admitting sweeps, let in-flight
     * jobs finish and journal, notify attached clients, then return
     * from run().  Async-signal-safe like stop().  A second drain()
     * escalates to stop() — two SIGTERMs mean "now".
     */
    void drain();

    /** The TCP port actually bound (ephemeral resolution); -1 if none. */
    int boundTcpPort() const { return tcpPort_; }

    /** One consistent health snapshot (what scsim-status serves). */
    FarmStatus snapshot() const;

  private:
    struct Session
    {
        std::uint64_t id = 0;
        Fd fd;
        runner::FrameAssembler in;
        std::string out;          //!< bytes awaiting POLLOUT
        bool helloDone = false;
        bool closing = false;     //!< flush out, then close
        /** Last accept/read/write progress; idle deadlines key off it. */
        std::chrono::steady_clock::time_point lastActivity;
    };

    struct ActiveSweep
    {
        std::uint64_t id = 0;
        std::uint64_t owner = 0;  //!< session id; 0 = detached
        /** Session that submitted it (kept after detach; session ids
         *  are never reused, so a dead submitter counts against no
         *  one).  The per-client sweep cap counts these. */
        std::uint64_t submitter = 0;
        std::string name;
        std::uint64_t specHash = 0;
        std::vector<std::string> tags;
        std::uint64_t pending = 0;  //!< jobs not yet completed
        SweepDoneMsg tally;
        std::unique_ptr<runner::JournalWriter> journal;
    };

    struct CompletionEvent
    {
        std::uint64_t sweepId = 0;
        std::size_t index = 0;
        runner::JobResult result;
    };

    void onCompletion(std::uint64_t sweepId, std::size_t index,
                      runner::JobResult r);
    void drainCompletions();
    void acceptOn(Fd &listener);
    void handleReadable(Session &s);
    void handleFrame(Session &s, const std::string &frame);
    void handleSubmit(Session &s, SubmitMsg msg);
    void finishSweepIfDone(ActiveSweep &sw);
    void sendFrame(Session &s, const std::string &frame);
    void flushOut(Session &s);
    void closeSession(std::uint64_t id);
    Session *sessionById(std::uint64_t id);

    bool ownsSweep(std::uint64_t sessionId) const;
    std::uint64_t oldestIdleSession() const;
    void sendBusy(Session &s, const char *reason,
                  std::uint64_t retryAfterMs);
    int pollTimeoutMs(std::chrono::steady_clock::time_point now) const;
    void enforceIdleDeadlines(std::chrono::steady_clock::time_point now);
    void performDrain();

    FarmServerOptions opts_;
    Fd unixListener_;
    Fd tcpListener_;
    int tcpPort_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::atomic<bool> stopRequested_{ false };
    std::atomic<bool> drainRequested_{ false };
    bool draining_ = false;  //!< poll thread latched the drain
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point acceptPausedUntil_{};

    // Degradation counters (poll thread only; see FarmStatus).
    std::uint64_t submitsRejected_ = 0;
    std::uint64_t idleDisconnects_ = 0;
    std::uint64_t slowReaderDisconnects_ = 0;
    std::uint64_t connectionsShed_ = 0;
    std::uint64_t acceptFailures_ = 0;
    std::uint64_t staleCompletions_ = 0;
    bool staleWarned_ = false;
    std::set<int> warnedAcceptErrnos_;

    runner::ResultCache cache_;  //!< shared by every sweep's jobs
    std::unique_ptr<runner::Dispatcher> dispatcher_;
    std::mutex completionsMutex_;
    std::deque<CompletionEvent> completions_;

    std::uint64_t nextSessionId_ = 1;
    std::uint64_t nextSweepId_ = 1;
    std::vector<std::unique_ptr<Session>> sessions_;
    std::map<std::uint64_t, ActiveSweep> sweeps_;
    std::uint64_t sweepsCompleted_ = 0;
};

} // namespace scsim::farm

#endif // SCSIM_FARM_FARM_SERVER_HH
