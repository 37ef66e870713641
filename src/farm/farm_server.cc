#include "farm/farm_server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "runner/job_key.hh"

namespace scsim::farm {

using runner::JobResult;
using runner::JobStatus;
using runner::WireDecode;

FarmServer::FarmServer(FarmServerOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cacheDir, opts_.cacheMaxBytes)
{
    if (opts_.socketPath.empty() && opts_.tcpPort < 0)
        scsim_throw(SimError,
                    "farm server needs a Unix socket path or a TCP "
                    "port to listen on");
    // Nonblocking listeners: acceptOn() drains every pending
    // connection after a POLLIN and must get EAGAIN, not block, when
    // the backlog is empty.
    if (!opts_.socketPath.empty()) {
        unixListener_ = listenUnix(opts_.socketPath,
                                   opts_.listenBacklog);
        setNonblocking(unixListener_.get());
    }
    if (opts_.tcpPort >= 0) {
        tcpListener_ = listenTcp(opts_.tcpPort, tcpPort_,
                                 opts_.listenBacklog);
        setNonblocking(tcpListener_.get());
    }

    if (!opts_.stateDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts_.stateDir, ec);
        if (ec)
            scsim_throw(SimError, "cannot create state dir '%s': %s",
                        opts_.stateDir.c_str(), ec.message().c_str());
    }

    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC | O_NONBLOCK) != 0)
        scsim_throw(SimError, "pipe2 failed: %s", std::strerror(errno));
    wakeRead_ = pipefd[0];
    wakeWrite_ = pipefd[1];

    start_ = std::chrono::steady_clock::now();

    runner::IsolatedRunOptions iso{ opts_.selfExe, opts_.jobTimeoutSec,
                                    opts_.crashAttempts, 0, "" };
    if (opts_.checkpointCycles) {
        if (opts_.stateDir.empty())
            scsim_throw(SimError,
                        "checkpointing needs a state directory "
                        "(--state-dir) to hold worker snapshots");
        iso.checkpointCycles = opts_.checkpointCycles;
        iso.snapshotDir = opts_.stateDir + "/snapshots";
    }
    dispatcher_ = std::make_unique<runner::Dispatcher>(
        runner::Dispatcher::Options{ opts_.workers, std::move(iso) },
        cache_,
        [this](std::uint64_t sweepId, std::size_t index, JobResult r) {
            onCompletion(sweepId, index, std::move(r));
        });
}

FarmServer::~FarmServer()
{
    dispatcher_->stop();
    if (wakeRead_ >= 0)
        ::close(wakeRead_);
    if (wakeWrite_ >= 0)
        ::close(wakeWrite_);
    if (!opts_.socketPath.empty())
        ::unlink(opts_.socketPath.c_str());
}

void
FarmServer::stop()
{
    stopRequested_.store(true, std::memory_order_relaxed);
    // One byte to the wake pipe: the only other thing needed here,
    // and the reason this is callable from a signal handler.
    char c = 'q';
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &c, 1);
}

void
FarmServer::drain()
{
    // Same async-signal-safety contract as stop(): one atomic, one
    // pipe byte.  A repeat request means the operator is impatient —
    // escalate to the hard stop.
    if (drainRequested_.exchange(true, std::memory_order_relaxed)) {
        stop();
        return;
    }
    char c = 'd';
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &c, 1);
}

void
FarmServer::onCompletion(std::uint64_t sweepId, std::size_t index,
                         JobResult r)
{
    {
        std::lock_guard lock(completionsMutex_);
        completions_.push_back(
            CompletionEvent{ sweepId, index, std::move(r) });
    }
    char c = 'c';
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &c, 1);
}

FarmServer::Session *
FarmServer::sessionById(std::uint64_t id)
{
    for (auto &s : sessions_)
        if (s->id == id)
            return s.get();
    return nullptr;
}

void
FarmServer::sendFrame(Session &s, const std::string &frame)
{
    if (s.closing)
        return;
    s.out += runner::envelopeFrame(frame);
    flushOut(s);
    if (opts_.maxWriteBufferBytes && !s.closing
        && s.out.size() > opts_.maxWriteBufferBytes) {
        // The peer stopped reading while we stream to it.  Dropping
        // the session detaches its sweeps — the jobs keep running and
        // journaling, so `submit --resume` recovers every result.
        scsim_warn("farm: session %llu buffered %zu bytes (cap %llu); "
                   "disconnecting slow reader — its sweeps continue "
                   "detached",
                   static_cast<unsigned long long>(s.id),
                   s.out.size(),
                   static_cast<unsigned long long>(
                       opts_.maxWriteBufferBytes));
        s.out.clear();
        s.closing = true;
        ++slowReaderDisconnects_;
    }
}

void
FarmServer::flushOut(Session &s)
{
    while (!s.out.empty()) {
        ssize_t n = ::send(s.fd.get(), s.out.data(), s.out.size(),
                           MSG_NOSIGNAL);
        if (n > 0) {
            s.out.erase(0, static_cast<std::size_t>(n));
            s.lastActivity = std::chrono::steady_clock::now();
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;  // poll for POLLOUT
        // Peer is gone; drop the backlog and let the loop reap us.
        s.out.clear();
        s.closing = true;
        return;
    }
}

void
FarmServer::closeSession(std::uint64_t id)
{
    // A disconnected client's sweeps keep running detached; their
    // results stay journaled for a later `submit --resume`.
    for (auto &[sweepId, sw] : sweeps_)
        if (sw.owner == id)
            sw.owner = 0;
    sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                   [&](const auto &s) {
                                       return s->id == id;
                                   }),
                    sessions_.end());
}

bool
FarmServer::ownsSweep(std::uint64_t sessionId) const
{
    for (const auto &[id, sw] : sweeps_)
        if (sw.owner == sessionId)
            return true;
    return false;
}

std::uint64_t
FarmServer::oldestIdleSession() const
{
    // "Idle" = owns no active sweep: not waiting for results, just
    // holding an fd.  Oldest activity first — the likeliest corpse.
    std::uint64_t victim = 0;
    std::chrono::steady_clock::time_point oldest;
    for (const auto &s : sessions_) {
        if (ownsSweep(s->id))
            continue;
        if (!victim || s->lastActivity < oldest) {
            victim = s->id;
            oldest = s->lastActivity;
        }
    }
    return victim;
}

void
FarmServer::acceptOn(Fd &listener)
{
    for (;;) {
        int fd = ::accept(listener.get(), nullptr, nullptr);
        if (fd < 0) {
            int err = errno;
            if (err == EINTR)
                continue;
            if (err == EAGAIN || err == EWOULDBLOCK)
                return;
            ++acceptFailures_;
            if (err == EMFILE || err == ENFILE || err == ENOBUFS
                || err == ENOMEM) {
                // Out of fds (or kernel memory).  Never die: shed the
                // oldest idle connection and retry; with nothing to
                // shed, pause accepting so the loop doesn't spin on a
                // hot listener we cannot service.
                if (std::uint64_t victim = oldestIdleSession()) {
                    ++connectionsShed_;
                    scsim_warn("farm: accept failed (%s); shedding "
                               "idle session %llu to free a "
                               "descriptor",
                               std::strerror(err),
                               static_cast<unsigned long long>(victim));
                    closeSession(victim);
                    continue;
                }
                acceptPausedUntil_ = std::chrono::steady_clock::now()
                    + std::chrono::seconds(1);
                if (warnedAcceptErrnos_.insert(err).second)
                    scsim_warn("farm: accept failed (%s) with no "
                               "sheddable session; pausing accepts "
                               "(counted in status as "
                               "acceptFailures)", std::strerror(err));
                return;
            }
            if (warnedAcceptErrnos_.insert(err).second)
                scsim_warn("farm: accept failed: %s (counted in "
                           "status as acceptFailures; warned once per "
                           "errno)", std::strerror(err));
            return;
        }
        setNonblocking(fd);
        if (opts_.sndbufBytes > 0)
            setSendBufferSize(fd, opts_.sndbufBytes);
        auto s = std::make_unique<Session>();
        s->id = nextSessionId_++;
        s->fd = Fd(fd);
        s->lastActivity = std::chrono::steady_clock::now();
        sessions_.push_back(std::move(s));
    }
}

void
FarmServer::handleReadable(Session &s)
{
    std::string chunk;
    long n = readSome(s.fd.get(), chunk);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        s.closing = true;
        s.out.clear();
        return;
    }
    if (n < 0)
        return;
    s.lastActivity = std::chrono::steady_clock::now();
    s.in.feed(chunk);
    std::string frame;
    while (!s.closing && s.in.next(frame))
        handleFrame(s, frame);
    if (s.in.corrupt() && !s.closing) {
        sendFrame(s, serializeError(
                         "unrecoverable transport corruption: stream "
                         "is not a sequence of enveloped farm frames"));
        s.closing = true;
    }
}

void
FarmServer::handleFrame(Session &s, const std::string &frame)
{
    try {
        runner::FrameHeader hdr;
        if (!runner::peekFrameHeader(frame, hdr))
            scsim_throw(ConfigError,
                        "unparsable record header (%zu bytes)",
                        frame.size());

        if (!s.helloDone) {
            HelloMsg peer;
            requireRecord(parseHello(frame, peer), frame, "hello");
            requireCompatibleHello(peer);
            s.helloDone = true;
            sendFrame(s, serializeHello(localHello("server")));
            return;
        }
        if (hdr.magic == kSubmitMagic) {
            SubmitMsg msg;
            requireRecord(parseSubmit(frame, msg), frame, "submit");
            handleSubmit(s, std::move(msg));
            return;
        }
        if (hdr.magic == kStatusReqMagic) {
            requireRecord(parseStatusReq(frame), frame,
                          "status request");
            sendFrame(s, serializeStatus(snapshot()));
            return;
        }
        if (hdr.magic == kDrainReqMagic) {
            requireRecord(parseDrainReq(frame), frame,
                          "drain request");
            DrainAckMsg ack;
            ack.inFlight = dispatcher_->inFlight();
            ack.abandoned = dispatcher_->queueDepth();
            ack.sweepsActive = sweeps_.size();
            sendFrame(s, serializeDrainAck(ack));
            // Latched, not immediate: run() checks before its next
            // poll, so this ack is queued (and usually flushed) first.
            drainRequested_.store(true, std::memory_order_relaxed);
            return;
        }
        scsim_throw(ConfigError,
                    "unexpected %s record (client must send submit, "
                    "status-req or drain-req after the handshake)",
                    hdr.magic.c_str());
    } catch (const SimError &e) {
        sendFrame(s, serializeError(e.what()));
        s.closing = true;
    }
}

void
FarmServer::sendBusy(Session &s, const char *reason,
                     std::uint64_t retryAfterMs)
{
    BusyMsg b;
    b.reason = reason;
    b.retryAfterMs = retryAfterMs;
    b.queueDepth = dispatcher_->queueDepth() + dispatcher_->inFlight();
    ++submitsRejected_;
    // Explicitly retryable: the session stays open so the client can
    // back off and resubmit on the same connection.
    sendFrame(s, serializeBusy(b));
}

void
FarmServer::handleSubmit(Session &s, SubmitMsg msg)
{
    // Admission control comes before validation: a refused submission
    // costs the daemon nothing but this reply.
    if (draining_ || drainRequested_.load(std::memory_order_relaxed)) {
        sendBusy(s, "draining", 0);
        return;
    }
    if (opts_.maxSweepsPerClient) {
        std::uint64_t mine = 0;
        for (const auto &[id, sw] : sweeps_)
            if (sw.submitter == s.id)
                ++mine;
        if (mine >= opts_.maxSweepsPerClient) {
            sendBusy(s, "client-cap", 500);
            return;
        }
    }
    if (opts_.maxQueuedJobs) {
        std::uint64_t load = dispatcher_->queueDepth()
            + dispatcher_->inFlight();
        if (load + msg.spec.jobs.size() > opts_.maxQueuedJobs) {
            sendBusy(s, "queue-full", 500);
            return;
        }
    }

    runner::validateSpec(msg.spec);

    const std::uint64_t specHash = runner::sweepSpecHash(msg.spec);
    const std::size_t jobCount = msg.spec.jobs.size();

    ActiveSweep sw;
    sw.id = nextSweepId_++;
    sw.owner = msg.detach ? 0 : s.id;
    sw.submitter = s.id;
    sw.name = msg.name;
    sw.specHash = specHash;
    sw.tags.reserve(jobCount);
    for (const runner::SimJob &job : msg.spec.jobs)
        sw.tags.push_back(job.tag);
    sw.pending = jobCount;

    // Resume: adopt every intact record of this spec's journal.  The
    // journal file is named by the spec hash, so a stale or foreign
    // file simply fails the pinned-identity check and is ignored.
    std::vector<std::optional<JobResult>> adopted(jobCount);
    std::string journalPath;
    if (!opts_.stateDir.empty())
        journalPath = opts_.stateDir + "/" + runner::keyToHex(specHash)
            + ".journal";
    if (msg.resume && !journalPath.empty()
        && std::filesystem::exists(journalPath)) {
        try {
            std::string foreign = runner::adoptJournal(
                journalPath, msg.spec, specHash, adopted);
            if (!foreign.empty())
                scsim_warn("%s; resuming nothing", foreign.c_str());
        } catch (const CacheError &e) {
            scsim_warn("cannot read journal '%s'; resuming nothing: %s",
                       journalPath.c_str(), e.what());
        }
    }

    // Fresh journal, re-seeded with the adopted records: rewriting
    // scrubs any half-written tail a SIGKILL left behind.
    if (!journalPath.empty()) {
        try {
            sw.journal = std::make_unique<runner::JournalWriter>(
                journalPath, specHash, jobCount, /*fresh=*/true);
        } catch (const CacheError &e) {
            scsim_warn("cannot open journal '%s'; sweep will not be "
                       "resumable: %s", journalPath.c_str(), e.what());
        }
    }

    AcceptMsg accept;
    accept.sweepId = sw.id;
    accept.specHash = specHash;
    accept.jobCount = jobCount;
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < jobCount; ++i)
        if (!adopted[i])
            pending.push_back(i);
    accept.adopted = jobCount - pending.size();
    sendFrame(s, serializeAccept(accept));

    if (!opts_.quiet)
        std::fprintf(stderr,
                     "farm: sweep %llu '%s': %zu jobs (%llu adopted)%s\n",
                     static_cast<unsigned long long>(sw.id),
                     sw.name.c_str(), jobCount,
                     static_cast<unsigned long long>(accept.adopted),
                     msg.detach ? " [detached]" : "");

    auto [it, inserted] = sweeps_.emplace(sw.id, std::move(sw));
    ActiveSweep &active = it->second;
    (void)inserted;

    for (std::size_t i = 0; i < jobCount; ++i) {
        if (!adopted[i])
            continue;
        JobResult &r = *adopted[i];
        if (active.journal)
            active.journal->tryAppend(i, active.tags[i], r);
        if (r.status == JobStatus::Cached)
            ++active.tally.cacheHits;
        else
            ++active.tally.executed;
        if (!r.ok() && r.status != JobStatus::Skipped)
            ++active.tally.failed;
        ++active.tally.resumed;
        --active.pending;
        if (active.owner) {
            JobDoneMsg done;
            done.index = i;
            done.adopted = true;
            done.result = std::move(r);
            if (Session *owner = sessionById(active.owner))
                sendFrame(*owner, serializeJobDone(done));
        }
    }

    dispatcher_->enqueue(active.id, msg.spec, pending);

    finishSweepIfDone(active);
}

void
FarmServer::finishSweepIfDone(ActiveSweep &sw)
{
    if (sw.pending != 0)
        return;
    if (sw.owner)
        if (Session *owner = sessionById(sw.owner))
            sendFrame(*owner, serializeSweepDone(sw.tally));
    if (!opts_.quiet)
        std::fprintf(
            stderr,
            "farm: sweep %llu '%s' done: %llu run, %llu cached, "
            "%llu failed, %llu resumed\n",
            static_cast<unsigned long long>(sw.id), sw.name.c_str(),
            static_cast<unsigned long long>(sw.tally.executed),
            static_cast<unsigned long long>(sw.tally.cacheHits),
            static_cast<unsigned long long>(sw.tally.failed),
            static_cast<unsigned long long>(sw.tally.resumed));
    ++sweepsCompleted_;
    sweeps_.erase(sw.id);
}

void
FarmServer::drainCompletions()
{
    std::deque<CompletionEvent> batch;
    {
        std::lock_guard lock(completionsMutex_);
        batch.swap(completions_);
    }
    for (CompletionEvent &ev : batch) {
        auto it = sweeps_.find(ev.sweepId);
        if (it == sweeps_.end()) {
            // A completion for a sweep we no longer track.  Nothing
            // reaches here through any path we know of — which is why
            // it must be counted and said out loud, not swallowed: if
            // the accounting invariant breaks, status shows it.
            ++staleCompletions_;
            if (!staleWarned_) {
                staleWarned_ = true;
                scsim_warn("farm: dropped a completion for unknown "
                           "sweep %llu (counted in status as "
                           "staleCompletions; warned once)",
                           static_cast<unsigned long long>(ev.sweepId));
            }
            continue;
        }
        ActiveSweep &sw = it->second;

        // Journal before streaming: anything the client saw is on
        // disk, so a daemon crash never loses an acknowledged job.
        if (sw.journal)
            sw.journal->tryAppend(ev.index, sw.tags[ev.index], ev.result);
        if (ev.result.cached)
            ++sw.tally.cacheHits;
        else
            ++sw.tally.executed;
        if (!ev.result.ok()
            && ev.result.status != JobStatus::Skipped)
            ++sw.tally.failed;
        --sw.pending;

        if (sw.owner) {
            JobDoneMsg done;
            done.index = ev.index;
            done.adopted = false;
            done.result = std::move(ev.result);
            if (Session *owner = sessionById(sw.owner))
                sendFrame(*owner, serializeJobDone(done));
        }
        finishSweepIfDone(sw);
    }
}

FarmStatus
FarmServer::snapshot() const
{
    FarmStatus st;
    st.build = buildVersion();
    st.protocol = kFarmProtocolVersion;
    st.uptimeMs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    st.workers = dispatcher_->workers();
    st.inFlight = dispatcher_->inFlight();
    st.busyWorkers = static_cast<int>(st.inFlight);
    st.queueDepth = dispatcher_->queueDepth();
    st.sessions = sessions_.size();
    st.sweepsActive = sweeps_.size();
    st.sweepsCompleted = sweepsCompleted_;
    st.jobsCompleted = dispatcher_->completed();
    st.jobsFailed = dispatcher_->failedJobs();
    st.jobsCrashed = dispatcher_->crashedJobs();
    st.jobsCoalesced = dispatcher_->coalesced();
    st.cacheHits = cache_.hits();
    st.cacheMisses = cache_.misses();
    st.cacheQuarantined = cache_.quarantined();
    st.cacheEvicted = cache_.evicted();
    st.cacheDiskBytes = cache_.diskBytes();
    st.cacheMaxBytes = cache_.maxDiskBytes();
    st.draining = draining_
        || drainRequested_.load(std::memory_order_relaxed);
    st.maxQueuedJobs = opts_.maxQueuedJobs;
    st.maxSweepsPerClient = opts_.maxSweepsPerClient;
    st.submitsRejected = submitsRejected_;
    st.idleDisconnects = idleDisconnects_;
    st.slowReaderDisconnects = slowReaderDisconnects_;
    st.connectionsShed = connectionsShed_;
    st.acceptFailures = acceptFailures_;
    st.staleCompletions = staleCompletions_;
    return st;
}

int
FarmServer::pollTimeoutMs(std::chrono::steady_clock::time_point now)
    const
{
    using namespace std::chrono;
    steady_clock::time_point next{};
    bool have = false;
    auto consider = [&](steady_clock::time_point tp) {
        if (!have || tp < next) {
            next = tp;
            have = true;
        }
    };
    if (opts_.idleTimeoutSec > 0) {
        auto idle = duration_cast<steady_clock::duration>(
            duration<double>(opts_.idleTimeoutSec));
        for (const auto &s : sessions_)
            if (!s->closing && !ownsSweep(s->id))
                consider(s->lastActivity + idle);
    }
    if (acceptPausedUntil_ > now)
        consider(acceptPausedUntil_);
    if (!have)
        return -1;
    auto ms = duration_cast<milliseconds>(next - now).count();
    return ms < 0 ? 0 : static_cast<int>(std::min<long long>(
                            ms + 1, 60'000));
}

void
FarmServer::enforceIdleDeadlines(
    std::chrono::steady_clock::time_point now)
{
    using namespace std::chrono;
    if (opts_.idleTimeoutSec <= 0)
        return;
    auto idle = duration_cast<steady_clock::duration>(
        duration<double>(opts_.idleTimeoutSec));
    for (auto &s : sessions_) {
        if (s->closing || ownsSweep(s->id))
            continue;
        if (now - s->lastActivity < idle)
            continue;
        // Best-effort goodbye; a peer too slow to read even this gets
        // the buffer dropped — holding its fd is the one thing the
        // deadline exists to prevent.
        sendFrame(*s, serializeError(detail::format(
                          "idle timeout: no activity for %.1fs; "
                          "reconnect to continue",
                          opts_.idleTimeoutSec)));
        s->out.clear();
        s->closing = true;
        ++idleDisconnects_;
    }
}

void
FarmServer::performDrain()
{
    draining_ = true;
    if (!opts_.quiet)
        std::fprintf(stderr,
                     "farm: draining: %llu job(s) in flight, %llu "
                     "queued (abandoned for --resume), %zu sweep(s) "
                     "active\n",
                     static_cast<unsigned long long>(
                         dispatcher_->inFlight()),
                     static_cast<unsigned long long>(
                         dispatcher_->queueDepth()),
                     sweeps_.size());

    // Join the workers here, on the poll thread, rather than polling
    // inFlight()==0: the dispatcher decrements its in-flight count
    // before the completion callback queues, so a count-based wait
    // could observe zero with the final result still unqueued.  After
    // the join, every completion is in the queue; drain it once and
    // every finished job is journaled and streamed.
    dispatcher_->stop();
    // A queued job the shared cache already holds costs nothing to
    // finish: complete it (journaled and streamed as a cache hit)
    // rather than leave it to --resume.
    dispatcher_->serveQueuedFromCache();
    drainCompletions();

    // Sweeps still pending lost their other queued jobs to the drain:
    // tell each attached client exactly where it stands.
    for (auto &[id, sw] : sweeps_) {
        if (!sw.owner)
            continue;
        Session *owner = sessionById(sw.owner);
        if (!owner)
            continue;
        std::size_t total = sw.tags.size();
        sendFrame(*owner,
                  serializeError(detail::format(
                      "daemon draining: sweep '%s' interrupted with "
                      "%zu of %zu jobs journaled; resubmit with "
                      "--resume after the daemon restarts",
                      sw.name.c_str(),
                      total - static_cast<std::size_t>(sw.pending),
                      total)));
    }

    // Patient flush: give slow-but-alive readers a bounded window to
    // take delivery of the tail (jobdones, sweepdones, the goodbyes).
    auto deadline = std::chrono::steady_clock::now()
        + std::chrono::seconds(3);
    for (;;) {
        std::vector<struct pollfd> fds;
        for (auto &s : sessions_) {
            flushOut(*s);
            if (!s->out.empty())
                fds.push_back({ s->fd.get(), POLLOUT, 0 });
        }
        if (fds.empty() || std::chrono::steady_clock::now() >= deadline)
            break;
        ::poll(fds.data(), fds.size(), 100);
    }
    sessions_.clear();
    if (!opts_.quiet)
        std::fprintf(stderr, "farm: drain complete\n");
}

void
FarmServer::run()
{
    while (!stopRequested_.load(std::memory_order_relaxed)) {
        if (drainRequested_.load(std::memory_order_relaxed)) {
            performDrain();
            return;
        }

        auto now = std::chrono::steady_clock::now();
        bool acceptPaused = acceptPausedUntil_ > now;

        std::vector<struct pollfd> fds;
        fds.push_back({ wakeRead_, POLLIN, 0 });
        std::size_t unixIdx = 0, tcpIdx = 0;
        if (unixListener_.valid() && !acceptPaused) {
            unixIdx = fds.size();
            fds.push_back({ unixListener_.get(), POLLIN, 0 });
        }
        if (tcpListener_.valid() && !acceptPaused) {
            tcpIdx = fds.size();
            fds.push_back({ tcpListener_.get(), POLLIN, 0 });
        }
        std::size_t firstSession = fds.size();
        for (auto &s : sessions_) {
            short events = s->closing ? 0 : POLLIN;
            if (!s->out.empty())
                events |= POLLOUT;
            fds.push_back({ s->fd.get(), events, 0 });
        }

        int rc = ::poll(fds.data(), fds.size(), pollTimeoutMs(now));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            scsim_warn("farm poll failed: %s", std::strerror(errno));
            break;
        }

        if (fds[0].revents & POLLIN) {
            char buf[256];
            while (::read(wakeRead_, buf, sizeof buf) > 0) {
            }
        }
        drainCompletions();

        if (unixIdx && (fds[unixIdx].revents & POLLIN))
            acceptOn(unixListener_);
        if (tcpIdx && (fds[tcpIdx].revents & POLLIN))
            acceptOn(tcpListener_);

        // Sessions may be added during this pass (never removed until
        // the reap below), so iterate the snapshot we polled.
        for (std::size_t k = firstSession; k < fds.size(); ++k) {
            Session *s = nullptr;
            for (auto &cand : sessions_)
                if (cand->fd.get() == fds[k].fd) {
                    s = cand.get();
                    break;
                }
            if (!s)
                continue;
            if (fds[k].revents & POLLOUT)
                flushOut(*s);
            if (!s->closing
                && (fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                handleReadable(*s);
        }

        enforceIdleDeadlines(std::chrono::steady_clock::now());

        std::vector<std::uint64_t> dead;
        for (auto &s : sessions_)
            if (s->closing && s->out.empty())
                dead.push_back(s->id);
        for (std::uint64_t id : dead)
            closeSession(id);
    }

    // Shutdown: in-flight jobs finish (and get journaled below);
    // unclaimed jobs are abandoned for `--resume`.
    dispatcher_->stop();
    drainCompletions();
    for (auto &s : sessions_)
        flushOut(*s);
    sessions_.clear();
}

} // namespace scsim::farm
