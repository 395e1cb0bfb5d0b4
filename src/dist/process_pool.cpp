#include "src/dist/process_pool.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/random.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <optional>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/dist/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

extern char** environ;

namespace oscar {
namespace dist {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Write the whole buffer to a non-blocking socket, polling for
 * writability up to `deadline`. Returns false on any failure (peer
 * gone, deadline passed); MSG_NOSIGNAL keeps a dead peer from raising
 * SIGPIPE.
 */
bool
sendAll(int fd, const std::uint8_t* data, std::size_t n,
        Clock::time_point deadline)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w > 0) {
            off += static_cast<std::size_t>(w);
            continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            const auto now = Clock::now();
            if (now >= deadline)
                return false;
            struct pollfd pfd{fd, POLLOUT, 0};
            const auto remain =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - now)
                    .count();
            ::poll(&pfd, 1, static_cast<int>(std::max<long long>(
                                1, std::min<long long>(remain, 100))));
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

/** "host:port" with a numeric port inside [min_port, max_port]? */
bool
parseHostPort(const std::string& spec, long min_port, long max_port)
{
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size())
        return false;
    const std::string port = spec.substr(colon + 1);
    char* end = nullptr;
    const long parsed = std::strtol(port.c_str(), &end, 10);
    return end != port.c_str() && *end == '\0' && parsed >= min_port &&
           parsed <= max_port;
}

} // namespace

// --------------------------------------------------------- resolvers

int
resolveThreadsPerWorker(int configured)
{
    if (configured >= 0)
        return configured;
    const char* env = std::getenv("OSCAR_DIST_THREADS");
    if (!env)
        return 1; // pre-hybrid default: single-threaded workers
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0 || parsed > 256)
        throw std::runtime_error(
            "OSCAR_DIST_THREADS: expected a per-worker thread count "
            "(0..256, 0 = hardware), got \"" +
            std::string(env) + "\"");
    return static_cast<int>(parsed);
}

std::string
resolveDistListen(const std::string& configured)
{
    std::string value = configured;
    std::string source = "DistOptions::listen";
    if (value.empty()) {
        const char* env = std::getenv("OSCAR_DIST_LISTEN");
        if (!env)
            return "";
        value = env;
        source = "OSCAR_DIST_LISTEN";
    }
    if (!parseHostPort(value, 0, 65535))
        throw std::runtime_error(
            source +
            ": expected \"host:port\" (numeric port 0..65535, 0 = "
            "kernel-assigned), got \"" +
            value + "\"");
    return value;
}

std::string
resolveDistConnect(const std::string& configured)
{
    std::string value = configured;
    std::string source = "--connect";
    if (value.empty()) {
        const char* env = std::getenv("OSCAR_DIST_CONNECT");
        if (!env)
            return "";
        value = env;
        source = "OSCAR_DIST_CONNECT";
    }
    if (!parseHostPort(value, 1, 65535))
        throw std::runtime_error(
            source +
            ": expected \"host:port\" (numeric port 1..65535), got \"" +
            value + "\"");
    return value;
}

std::string
resolveDistSecret(const std::string& configured)
{
    constexpr std::size_t kMaxSecretBytes = 256;
    if (!configured.empty()) {
        if (configured.size() > kMaxSecretBytes)
            throw std::runtime_error(
                "DistOptions::secret: expected a shared secret of at "
                "most 256 bytes");
        return configured;
    }
    const char* env = std::getenv("OSCAR_DIST_SECRET");
    if (!env)
        return "";
    const std::string value(env);
    if (value.empty() || value.size() > kMaxSecretBytes)
        throw std::runtime_error(
            "OSCAR_DIST_SECRET: expected a non-empty shared secret of "
            "at most 256 bytes");
    return value;
}

// ------------------------------------------------------------- state

/** One shard of one batch on the shared task queue. */
struct Shard
{
    std::shared_ptr<RemoteBatch> batch;
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::uint64_t taskId = 0;
    /** A StealRequest for this shard is on the wire, grant pending. */
    bool stealPending = false;
    /** When the shard (re)entered the queue; feeds the queue-wait
     *  histogram at dispatch time. */
    std::uint64_t enqueuedNs = 0;
};

/**
 * Outstanding shards per worker. Depth 2 pipelines the dispatch
 * round-trip: the next shard rides the wire (and sits in the worker's
 * socket buffer) while the current one computes, so a worker never
 * idles between shards. Deeper queues would only grow the amount of
 * work a crash requeues.
 */
constexpr std::size_t kPipelineDepth = 2;

/** One pool member: an accepted TCP connection, from a forked local
 *  worker or a remote joiner. All fields monitor-owned; pid/alive
 *  also read by workerPids()/healthy() under the core mutex. */
struct WorkerProc
{
    /** A pid this pool spawned, once the Hello bound it; else -1. */
    int pid = -1;
    int fd = -1;
    bool alive = false;
    bool helloSeen = false;
    /** The challenge its Hello must answer with the fleet-secret tag. */
    std::uint64_t nonce = 0;
    /** Evaluation threads the worker advertised in its Hello (>= 1). */
    std::uint16_t capacity = 1;
    /** The pid the worker reported in its Hello -- the key its
     *  Telemetry frames use (equals `pid` for locals; set even for
     *  remote members, whose `pid` stays -1). */
    std::int32_t telemetryPid = 0;
    FrameDecoder decoder;
    Clock::time_point lastHeard;
    /** In dispatch order, at most kPipelineDepth deep. */
    std::vector<Shard> inflight;
    std::unordered_set<std::uint64_t> loadedCosts;
};

/** A pid this pool forked; bound to its member once its Hello arrives. */
struct SpawnedPid
{
    int pid = -1;
    bool bound = false;
};

/**
 * Shared pool core. RemoteBatch handles keep it alive through a
 * weak_ptr upgrade in cancel(), so a handle outliving the pool never
 * dereferences freed state.
 *
 * Lock ordering: core.mutex may be held while taking a batch's mutex,
 * never the reverse.
 */
struct PoolCore
{
    DistOptions options;
    std::string workerPath;

    mutable std::mutex mutex;
    std::deque<Shard> pending;
    /** Deque: joiners push_back without invalidating member refs. */
    std::deque<WorkerProc> workers;
    bool stop = false;
    PoolStats stats;
    std::uint64_t nextTaskId = 1;
    /** Content-addressed cost specs (LoadCost payloads) by costId. */
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> costs;

    /**
     * A configured listener: remote joiners may arrive at any time, so
     * the pool may run empty and keeps batches queued meanwhile. A
     * default pool listens only for its own workers.
     */
    bool elastic = false;
    int listenFd = -1;
    std::uint16_t boundPort = 0;
    /** Forked locals, bound to members by Hello pid. */
    std::vector<SpawnedPid> spawned;
    /** Local membership progress; the constructor waits on these. */
    std::size_t localHelloCount = 0;
    std::size_t localDeadCount = 0;
    std::condition_variable membershipCv;
    /** Challenge nonces (membership gating, not cryptography). */
    std::mt19937_64 rng{std::random_device{}()};

    int wakeRead = -1;
    int wakeWrite = -1;

    Clock::time_point
    sendDeadline() const
    {
        return Clock::now() +
               std::chrono::milliseconds(options.heartbeatTimeoutMs);
    }
};

/** Remote-execution Control behind a BatchHandle. */
struct RemoteBatch final : BatchHandle::Control
{
    std::weak_ptr<PoolCore> core;
    std::vector<std::vector<double>> points;
    CostFunction* cost = nullptr;
    std::uint64_t costId = 0;
    std::uint64_t baseOrdinal = 0;
    SubmitOptions options;

    mutable std::mutex m;
    std::condition_variable cv;
    std::vector<double> out;
    BatchStats progress;
    std::exception_ptr error;
    std::size_t shardsTotal = 0;
    std::size_t shardsAccounted = 0;
    bool finished = false;

    /** Serializes onComplete invocations (never held with `m`). */
    std::mutex callbackMutex;

    bool
    done() const override
    {
        std::lock_guard<std::mutex> lock(m);
        return finished;
    }

    void
    wait() override
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return finished; });
    }

    std::vector<double>
    get() override
    {
        wait();
        std::lock_guard<std::mutex> lock(m);
        if (error)
            std::rethrow_exception(error);
        if (progress.pointsCancelled > 0)
            throw std::runtime_error(
                "BatchHandle::get: batch was cancelled");
        return out;
    }

    bool
    cancel() override
    {
        // Pull this batch's still-queued shards off the shared queue;
        // in-flight shards complete and are charged, like the engine.
        // After the pool died there is nothing left to skip (its
        // destructor already retired the queue).
        std::size_t skipped_points = 0;
        std::size_t skipped_shards = 0;
        if (const std::shared_ptr<PoolCore> c = core.lock()) {
            std::lock_guard<std::mutex> lock(c->mutex);
            auto it = c->pending.begin();
            while (it != c->pending.end()) {
                if (it->batch.get() == this) {
                    skipped_points += it->hi - it->lo;
                    ++skipped_shards;
                    it = c->pending.erase(it);
                } else {
                    ++it;
                }
            }
        }
        if (skipped_points == 0)
            return false;
        cost->refundQueries(skipped_points);
        std::lock_guard<std::mutex> lock(m);
        progress.pointsCancelled += skipped_points;
        accountShardsLocked(skipped_shards);
        return true;
    }

    BatchStats
    stats() const override
    {
        std::lock_guard<std::mutex> lock(m);
        return progress;
    }

    /** Call with `m` held. */
    void
    accountShardsLocked(std::size_t n)
    {
        shardsAccounted += n;
        if (shardsAccounted == shardsTotal) {
            finished = true;
            cv.notify_all();
        }
    }

    /** Fail the whole batch (first error wins). Call with `m` held. */
    void
    failShardLocked(const std::string& message, std::size_t shards)
    {
        if (!error)
            error = std::make_exception_ptr(std::runtime_error(message));
        accountShardsLocked(shards);
    }
};

// ----------------------------------------------------------- helpers

namespace {

/**
 * Encode-and-send one frame; false on failure. `wire_bytes_out`, when
 * given, reports the encoded (possibly compressed) on-wire size.
 */
bool
sendFrame(const PoolCore& core, WorkerProc& worker,
          FrameType type, std::span<const std::uint8_t> payload,
          std::size_t* wire_bytes_out = nullptr)
{
    const std::vector<std::uint8_t> bytes = encodeFrame(type, payload);
    if (wire_bytes_out)
        *wire_bytes_out = bytes.size();
    return sendAll(worker.fd, bytes.data(), bytes.size(),
                   core.sendDeadline());
}

} // namespace

// The monitor below needs these with the core lock held.
namespace {

void requeueNoSurvivorsLocked(PoolCore& core);

/** Points currently assigned to a worker (all pipelined shards). */
std::size_t
inflightPoints(const WorkerProc& worker)
{
    std::size_t points = 0;
    for (const Shard& shard : worker.inflight)
        points += shard.hi - shard.lo;
    return points;
}

/**
 * Declare a worker dead: close its socket, make sure any local
 * process is gone, and put ALL of its in-flight (pipelined) shards
 * back at the head of the queue -- in their original dispatch order --
 * so recovery preempts new work. Call with the core mutex held.
 */
void
markWorkerDeadLocked(PoolCore& core, WorkerProc& worker)
{
    if (!worker.alive)
        return;
    worker.alive = false;
    if (worker.fd >= 0) {
        ::close(worker.fd);
        worker.fd = -1;
    }
    if (worker.pid > 0) {
        ::kill(worker.pid, SIGKILL);
        ::waitpid(worker.pid, nullptr, 0);
        // Forget the pid once reaped: the OS may recycle it, and a
        // later cleanup pass must not SIGKILL an innocent process.
        worker.pid = -1;
    }
    // An accept that never authenticated was not a member; don't
    // count it as a lost worker.
    if (worker.helloSeen)
        core.stats.workersLost++;
    // Forget the dead worker's metrics contribution: its unfinished
    // shards requeue and re-execute elsewhere, so keeping its last
    // cumulative snapshot would double-count that work in merged().
    if (worker.telemetryPid != 0)
        obs::Registry::global().dropWorkerSnapshot(worker.telemetryPid);
    while (!worker.inflight.empty()) {
        // Back to front, each pushed at the head: the queue ends up
        // [first dispatched, second dispatched, older pending...].
        Shard shard = std::move(worker.inflight.back());
        worker.inflight.pop_back();
        shard.stealPending = false; // any granted tail re-runs anyway
        core.stats.tasksRequeued++;
        {
            std::lock_guard<std::mutex> lock(shard.batch->m);
            shard.batch->progress.shardsRequeued++;
        }
        if (obs::tracingEnabled()) {
            const std::uint64_t now = obs::Tracer::nowNs();
            obs::Tracer::global().record(obs::SpanCategory::Dist,
                                         "requeue", now, now,
                                         shard.taskId,
                                         shard.hi - shard.lo);
        }
        shard.enqueuedNs = obs::Tracer::nowNs();
        core.pending.push_front(std::move(shard));
    }
    core.membershipCv.notify_all();
    requeueNoSurvivorsLocked(core);
}

/** Fail every queued shard's batch. Call with the core mutex held. */
void
failAllPendingLocked(PoolCore& core, const char* message)
{
    while (!core.pending.empty()) {
        Shard shard = std::move(core.pending.front());
        core.pending.pop_front();
        std::lock_guard<std::mutex> lock(shard.batch->m);
        shard.batch->failShardLocked(message, 1);
    }
}

/**
 * With no survivors the queue can never drain: fail every queued
 * shard's batch instead of hanging its waiters. An elastic pool is
 * exempt while running -- a joiner may still arrive -- but not during
 * shutdown, when no new members are accepted. Call with the core
 * mutex held.
 */
void
requeueNoSurvivorsLocked(PoolCore& core)
{
    if (core.elastic && !core.stop)
        return;
    for (const WorkerProc& w : core.workers) {
        if (w.alive)
            return;
    }
    failAllPendingLocked(
        core, "distributed execution: all worker processes died");
}

/**
 * Hand queued shards to fully-handshaken workers with pipeline room,
 * least-loaded (in-flight points per unit of advertised capacity)
 * first, so a 4-thread worker draws proportionally more of the queue
 * than a single-threaded one. Call with the core mutex held.
 */
void
dispatchLocked(PoolCore& core)
{
    while (!core.pending.empty()) {
        WorkerProc* best = nullptr;
        double best_load = 0.0;
        for (WorkerProc& worker : core.workers) {
            if (!worker.alive || !worker.helloSeen ||
                worker.inflight.size() >= kPipelineDepth)
                continue;
            const double load =
                static_cast<double>(inflightPoints(worker)) /
                static_cast<double>(worker.capacity);
            if (!best || load < best_load ||
                (load == best_load && worker.capacity > best->capacity)) {
                best = &worker;
                best_load = load;
            }
        }
        if (!best)
            return; // every live worker's pipeline is full
        WorkerProc& worker = *best;
        Shard shard = std::move(core.pending.front());
        core.pending.pop_front();

        obs::ScopedSpan dispatch_span(obs::SpanCategory::Dist,
                                      "dispatch", shard.taskId,
                                      shard.hi - shard.lo);
        if (obs::metricsEnabled()) {
            static obs::Histogram& queue_wait =
                obs::Registry::global().histogram(
                    "dist.queue.wait.ns");
            static obs::Histogram& shard_points =
                obs::Registry::global().histogram("dist.shard.points");
            if (shard.enqueuedNs != 0)
                queue_wait.observe(obs::Tracer::nowNs() -
                                   shard.enqueuedNs);
            shard_points.observe(shard.hi - shard.lo);
        }

        const std::uint64_t cost_id = shard.batch->costId;
        // Raw vs on-wire bytes for the frames this dispatch sends;
        // the delta is the framing compressor's saving.
        std::size_t sent_raw = 0;
        std::size_t sent_wire = 0;
        bool ok = true;
        try {
            if (!worker.loadedCosts.count(cost_id)) {
                const std::vector<std::uint8_t>& spec =
                    core.costs.at(cost_id);
                std::size_t wire = 0;
                ok = sendFrame(core, worker, FrameType::LoadCost, spec,
                               &wire);
                if (ok) {
                    worker.loadedCosts.insert(cost_id);
                    sent_raw += kFrameHeaderSize + spec.size() + 4;
                    sent_wire += wire;
                }
            }
            if (ok) {
                TaskMsg task;
                task.taskId = shard.taskId;
                task.costId = cost_id;
                task.baseOrdinal = shard.batch->baseOrdinal + shard.lo;
                task.points.assign(
                    shard.batch->points.begin() +
                        static_cast<std::ptrdiff_t>(shard.lo),
                    shard.batch->points.begin() +
                        static_cast<std::ptrdiff_t>(shard.hi));
                const std::vector<std::uint8_t> payload =
                    encodeTask(task);
                std::size_t wire = 0;
                ok = sendFrame(core, worker, FrameType::Task, payload,
                               &wire);
                if (ok) {
                    sent_raw += kFrameHeaderSize + payload.size() + 4;
                    sent_wire += wire;
                }
            }
        } catch (const WireError& e) {
            // Unencodable shard (e.g. a payload past the frame size
            // limit): deterministic, so requeueing would spin — fail
            // the batch and keep both the worker and the monitor
            // thread alive (an uncaught throw here would terminate
            // the process).
            std::lock_guard<std::mutex> lock(shard.batch->m);
            shard.batch->failShardLocked(
                std::string("distributed dispatch: ") + e.what(), 1);
            continue;
        }
        if (!ok) {
            // Put the shard back first so the death path cannot race
            // it away, then retire the worker (which also requeues
            // anything already pipelined to it).
            core.pending.push_front(std::move(shard));
            markWorkerDeadLocked(core, worker);
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(shard.batch->m);
            if (!worker.inflight.empty())
                shard.batch->progress.shardsPipelined++;
            shard.batch->progress.bytesOnWireRaw += sent_raw;
            shard.batch->progress.bytesOnWireCompressed += sent_wire;
        }
        if (worker.pid <= 0)
            core.stats.tasksToRemote++;
        worker.inflight.push_back(std::move(shard));
        core.stats.tasksDispatched++;
    }
}

/**
 * Per-point work stealing: with the queue drained and a handshaken
 * worker idle, ask the worker holding the largest in-flight shard to
 * yield its unrun tail. At most one steal is outstanding pool-wide --
 * the grant requeues the tail, and the regular dispatch pass moves it
 * to the idle worker. Call with the core mutex held.
 */
void
maybeStealLocked(PoolCore& core)
{
    if (!core.options.steal || core.stop || !core.pending.empty())
        return;
    bool idle = false;
    for (const WorkerProc& w : core.workers) {
        if (w.alive && w.helloSeen && w.inflight.empty()) {
            idle = true;
            break;
        }
    }
    if (!idle)
        return;
    WorkerProc* victim = nullptr;
    Shard* target = nullptr;
    for (WorkerProc& w : core.workers) {
        if (!w.alive || !w.helloSeen)
            continue;
        for (Shard& s : w.inflight) {
            if (s.stealPending)
                return; // a steal is already in flight; let it land
            // A 1-point shard has no tail to split.
            if (s.hi - s.lo < 2)
                continue;
            if (!target || s.hi - s.lo > target->hi - target->lo) {
                victim = &w;
                target = &s;
            }
        }
    }
    if (!target)
        return;
    StealRequestMsg msg;
    msg.taskId = target->taskId;
    WireWriter w;
    encodeStealRequest(w, msg);
    if (!sendFrame(core, *victim, FrameType::StealRequest, w.bytes())) {
        markWorkerDeadLocked(core, *victim);
        return;
    }
    target->stealPending = true;
}

/** One completed shard, carried out of the lock for callback work. */
struct Completion
{
    std::shared_ptr<RemoteBatch> batch;
    std::size_t lo = 0;
    std::vector<double> values;
    KernelStats kernel;
    /** Result frame size before/after wire compression. */
    std::size_t rawBytes = 0;
    std::size_t wireBytes = 0;
    /** Pool membership/routing counters at completion time, folded
     *  into BatchStats (max-aggregated) so handle holders see them. */
    std::size_t workersJoined = 0;
    std::size_t tasksToRemote = 0;
};

/**
 * Handle one decoded frame from a worker. Returns false when the
 * worker violated the protocol and must be retired. Call with the
 * core mutex held.
 */
bool
handleFrameLocked(PoolCore& core, WorkerProc& worker, Frame&& frame,
                  std::vector<Completion>& completed)
{
    worker.lastHeard = Clock::now();
    switch (frame.type) {
      case FrameType::Hello: {
        const HelloMsg hello = decodeHello(frame.payload);
        if (worker.helloSeen)
            return false; // one Hello per connection
        if (hello.wireVersion != kWireVersion)
            return false;
        if (hello.authTag !=
            helloAuthTag(core.options.secret, worker.nonce, hello))
            return false; // wrong fleet secret: drop before any work
        worker.helloSeen = true;
        worker.capacity = std::max<std::uint16_t>(1, hello.threads);
        worker.telemetryPid = hello.pid;
        core.stats.workersJoined++;
        // A member whose Hello pid matches a pid this pool forked is
        // one of our own locals: bind it so workerPids() fault hooks
        // and the membership wait see it.
        for (SpawnedPid& sp : core.spawned) {
            if (!sp.bound && sp.pid == hello.pid) {
                sp.bound = true;
                worker.pid = sp.pid;
                break;
            }
        }
        if (worker.pid > 0)
            core.localHelloCount++;
        core.membershipCv.notify_all();
        return true;
      }
      case FrameType::Heartbeat:
        return true;
      case FrameType::Result: {
        ResultMsg msg = decodeResult(frame.payload);
        const auto it = std::find_if(
            worker.inflight.begin(), worker.inflight.end(),
            [&](const Shard& s) { return s.taskId == msg.taskId; });
        if (it == worker.inflight.end())
            return true; // stale result; ignore
        if (msg.values.size() != it->hi - it->lo)
            return false; // wrong shard size: retire + requeue inflight
        Shard shard = std::move(*it);
        worker.inflight.erase(it);
        Completion done;
        done.batch = std::move(shard.batch);
        done.lo = shard.lo;
        done.values = std::move(msg.values);
        done.kernel = msg.kernel;
        done.rawBytes = kFrameHeaderSize + frame.payload.size() + 4;
        done.wireBytes = frame.wireBytes;
        done.workersJoined = core.stats.workersJoined;
        done.tasksToRemote = core.stats.tasksToRemote;
        completed.push_back(std::move(done));
        return true;
      }
      case FrameType::StealGrant: {
        const StealGrantMsg msg = decodeStealGrant(frame.payload);
        const auto it = std::find_if(
            worker.inflight.begin(), worker.inflight.end(),
            [&](const Shard& s) { return s.taskId == msg.taskId; });
        if (it == worker.inflight.end())
            return true; // shard already completed or requeued
        Shard& shard = *it;
        shard.stealPending = false;
        const std::size_t size = shard.hi - shard.lo;
        const std::size_t keep = std::min<std::size_t>(
            static_cast<std::size_t>(msg.keep), size);
        if (keep == size)
            return true; // worker finished before the request landed
        // Split: the worker keeps [lo, lo+keep) -- its Result for
        // exactly those points is already ahead of this grant on the
        // wire (or never coming, when keep == 0) -- and the unrun
        // tail goes back on the queue under a fresh task id. Ordinals
        // were reserved at submission, so the stolen points evaluate
        // bit-identically wherever they land.
        Shard tail;
        tail.batch = shard.batch;
        tail.lo = shard.lo + keep;
        tail.hi = shard.hi;
        tail.taskId = core.nextTaskId++;
        shard.hi = shard.lo + keep;
        core.stats.tasksStolen++;
        {
            std::lock_guard<std::mutex> lock(tail.batch->m);
            tail.batch->progress.shardsStolen++;
            if (keep > 0)
                tail.batch->shardsTotal++;
        }
        if (obs::tracingEnabled()) {
            const std::uint64_t now = obs::Tracer::nowNs();
            obs::Tracer::global().record(obs::SpanCategory::Dist,
                                         "steal", now, now,
                                         tail.taskId, size - keep);
        }
        if (obs::metricsEnabled()) {
            static obs::Histogram& steal_tail =
                obs::Registry::global().histogram(
                    "dist.steal.tail.points");
            steal_tail.observe(size - keep);
        }
        if (keep == 0)
            worker.inflight.erase(it); // no Result follows
        tail.enqueuedNs = obs::Tracer::nowNs();
        core.pending.push_front(std::move(tail));
        return true;
      }
      case FrameType::Telemetry: {
        // Worker observability shipment: spans join the coordinator's
        // trace under the sender's pid; the cumulative metrics
        // snapshot *replaces* this worker's previous one (merged() is
        // therefore deterministic however often workers report).
        const TelemetryMsg msg = decodeTelemetry(frame.payload);
        if (!msg.spans.empty())
            obs::Tracer::global().addRemoteSpans(msg.pid, msg.spans);
        if (!msg.metrics.empty())
            obs::Registry::global().setWorkerSnapshot(msg.pid,
                                                      msg.metrics);
        return true;
      }
      case FrameType::TaskError: {
        const TaskErrorMsg msg = decodeTaskError(frame.payload);
        const auto it = std::find_if(
            worker.inflight.begin(), worker.inflight.end(),
            [&](const Shard& s) { return s.taskId == msg.taskId; });
        if (it == worker.inflight.end())
            return true;
        Shard shard = std::move(*it);
        worker.inflight.erase(it);
        if (msg.code == kTaskErrorUnknownCost) {
            // The worker's bounded spec cache evicted this cost:
            // forget that it was loaded (the next dispatch re-sends
            // the spec) and retry the shard. Self-healing, never a
            // batch failure.
            worker.loadedCosts.erase(shard.batch->costId);
            shard.stealPending = false;
            core.stats.tasksRequeued++;
            core.pending.push_front(std::move(shard));
            return true;
        }
        std::lock_guard<std::mutex> lock(shard.batch->m);
        shard.batch->failShardLocked(
            "distributed worker: " + msg.message, 1);
        return true; // evaluation error; the worker itself is fine
      }
      default:
        return false; // pool-bound frames only
    }
}

/**
 * Accept every pending connection and challenge it: the joiner may
 * not receive work until its Hello answers the nonce with the
 * fleet-secret tag. Call with the core mutex held.
 */
void
acceptJoinersLocked(PoolCore& core)
{
    for (;;) {
        const int fd = ::accept4(core.listenFd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0)
            break;
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        WorkerProc w;
        w.fd = fd;
        w.alive = true;
        w.nonce = core.rng();
        // The heartbeat timeout doubles as the handshake deadline: a
        // connection that never answers the challenge times out.
        w.lastHeard = Clock::now();
        ChallengeMsg challenge;
        challenge.nonce = w.nonce;
        WireWriter writer;
        encodeChallenge(writer, challenge);
        if (!sendFrame(core, w, FrameType::Challenge, writer.bytes())) {
            ::close(fd);
            continue;
        }
        core.workers.push_back(std::move(w));
    }
}

/**
 * Apply a completed shard outside the core lock: write the values,
 * stream callbacks, account progress.
 */
void
applyCompletion(Completion& done)
{
    const std::size_t n = done.values.size();
    std::memcpy(done.batch->out.data() + done.lo, done.values.data(),
                n * sizeof(double));

    std::exception_ptr callback_failure;
    if (done.batch->options.onComplete) {
        std::lock_guard<std::mutex> lock(done.batch->callbackMutex);
        try {
            for (std::size_t i = 0; i < n; ++i)
                done.batch->options.onComplete(done.lo + i,
                                               done.values[i]);
        } catch (...) {
            callback_failure = std::current_exception();
        }
    }

    std::lock_guard<std::mutex> lock(done.batch->m);
    done.batch->progress.pointsCompleted += n;
    done.batch->progress.pointsRemote += n;
    done.batch->progress.kernel += done.kernel;
    done.batch->progress.remoteKernel += done.kernel;
    done.batch->progress.bytesOnWireRaw += done.rawBytes;
    done.batch->progress.bytesOnWireCompressed += done.wireBytes;
    done.batch->progress.workersJoined = std::max(
        done.batch->progress.workersJoined, done.workersJoined);
    done.batch->progress.tasksToRemote = std::max(
        done.batch->progress.tasksToRemote, done.tasksToRemote);
    if (callback_failure && !done.batch->error)
        done.batch->error = callback_failure;
    done.batch->accountShardsLocked(1);
}

} // namespace

// ------------------------------------------------------------- spawn

std::string
ProcessPool::resolveWorkerPath(const std::string& override_path)
{
    // An explicit path (options, then environment) is authoritative:
    // a typo'd path should fail loudly, not silently fall back to a
    // stale build-tree worker.
    if (!override_path.empty()) {
        if (::access(override_path.c_str(), X_OK) != 0)
            throw std::runtime_error(
                "DistOptions::workerPath is not executable: " +
                override_path);
        return override_path;
    }
    if (const char* env = std::getenv("OSCAR_WORKER_BIN")) {
        if (::access(env, X_OK) != 0)
            throw std::runtime_error(
                "OSCAR_WORKER_BIN is not executable: " +
                std::string(env));
        return env;
    }

    std::vector<std::string> candidates;
#ifdef OSCAR_WORKER_DEFAULT_PATH
    candidates.push_back(OSCAR_WORKER_DEFAULT_PATH);
#endif
    // Next to the running executable (installed layouts).
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
        exe[n] = '\0';
        std::string dir(exe);
        const std::size_t slash = dir.rfind('/');
        if (slash != std::string::npos)
            candidates.push_back(dir.substr(0, slash) + "/oscar-worker");
    }

    for (const std::string& path : candidates) {
        if (::access(path.c_str(), X_OK) == 0)
            return path;
    }
    std::string tried;
    for (const std::string& path : candidates)
        tried += (tried.empty() ? "" : ", ") + path;
    throw std::runtime_error(
        "oscar-worker executable not found (tried: " +
        (tried.empty() ? std::string("nothing") : tried) +
        "); set OSCAR_WORKER_BIN or DistOptions::workerPath");
}

namespace {

/**
 * Fork + exec one local worker that joins back over TCP, exactly like
 * a remote member would. The fleet secret travels via the child's
 * environment, never argv (ps would leak it).
 */
int
spawnConnectWorker(const std::string& worker_path,
                   const std::string& connect_to, int heartbeat_ms,
                   int threads, const std::string& secret)
{
    std::vector<std::string> env_store;
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
        const std::string entry(*e);
        if (entry.rfind("OSCAR_DIST_SECRET=", 0) == 0 ||
            entry.rfind("OSCAR_DIST_CONNECT=", 0) == 0 ||
            entry.rfind("OSCAR_DIST_LISTEN=", 0) == 0 ||
            entry.rfind("OSCAR_DIST_WORKERS=", 0) == 0)
            continue; // the child must not re-coordinate or re-listen
        env_store.push_back(entry);
    }
    if (!secret.empty())
        env_store.push_back("OSCAR_DIST_SECRET=" + secret);

    std::vector<std::string> arg_store = {
        "oscar-worker",   "--connect", connect_to,
        "--heartbeat-ms", std::to_string(heartbeat_ms),
        "--threads",      std::to_string(threads)};

    std::vector<char*> argv;
    argv.reserve(arg_store.size() + 1);
    for (std::string& s : arg_store)
        argv.push_back(s.data());
    argv.push_back(nullptr);
    std::vector<char*> envp;
    envp.reserve(env_store.size() + 1);
    for (std::string& s : env_store)
        envp.push_back(s.data());
    envp.push_back(nullptr);

    const int pid = ::fork();
    if (pid == 0) {
        ::execve(worker_path.c_str(), argv.data(), envp.data());
        ::_exit(127); // exec failed; the waitpid scan notices
    }
    if (pid < 0)
        throw std::runtime_error("ProcessPool: fork failed");
    return pid;
}

/**
 * Bind + listen on a validated "host:port" spec; reports the actual
 * bound port (for ":0" specs) through `port_out`.
 */
int
openListener(const std::string& spec, std::uint16_t* port_out)
{
    const std::size_t colon = spec.rfind(':');
    const std::string host = spec.substr(0, colon);
    const std::string port = spec.substr(colon + 1);

    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    struct addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 ||
        res == nullptr)
        throw std::runtime_error(
            "ProcessPool: cannot resolve listen address " + spec);

    int fd = -1;
    for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family,
                      ai->ai_socktype | SOCK_CLOEXEC | SOCK_NONBLOCK,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, 64) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0)
        throw std::runtime_error("ProcessPool: cannot listen on " +
                                 spec);

    struct sockaddr_storage ss;
    socklen_t slen = sizeof(ss);
    std::memset(&ss, 0, sizeof(ss));
    ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&ss), &slen);
    if (ss.ss_family == AF_INET6)
        *port_out = ntohs(
            reinterpret_cast<struct sockaddr_in6*>(&ss)->sin6_port);
    else
        *port_out =
            ntohs(reinterpret_cast<struct sockaddr_in*>(&ss)->sin_port);
    return fd;
}

/**
 * A random per-pool secret (hex, so it survives the environment): a
 * default pool's loopback listener then admits only the workers it
 * spawned, which receive the secret through their environment.
 */
std::string
mintSecret()
{
    std::uint8_t bytes[16];
    std::size_t got = 0;
    while (got < sizeof(bytes)) {
        const ssize_t n = ::getrandom(bytes + got, sizeof(bytes) - got, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            throw std::runtime_error("ProcessPool: getrandom failed");
        got += static_cast<std::size_t>(n);
    }
    static const char kHex[] = "0123456789abcdef";
    std::string secret;
    for (const std::uint8_t b : bytes) {
        secret.push_back(kHex[b >> 4]);
        secret.push_back(kHex[b & 15]);
    }
    return secret;
}

/** Where the pool's own locals should connect. */
std::string
connectAddressFor(const std::string& listen_spec, std::uint16_t port)
{
    std::string host = listen_spec.substr(0, listen_spec.rfind(':'));
    if (host == "0.0.0.0" || host == "::" || host == "*")
        host = "127.0.0.1"; // wildcard bind: dial loopback
    return host + ":" + std::to_string(port);
}

} // namespace

ProcessPool::ProcessPool(const DistOptions& options)
{
    core_ = std::make_shared<PoolCore>();
    core_->options = options;
    core_->options.heartbeatIntervalMs =
        std::max(10, options.heartbeatIntervalMs);
    core_->options.heartbeatTimeoutMs =
        std::max(3 * core_->options.heartbeatIntervalMs,
                 options.heartbeatTimeoutMs);
    core_->options.threadsPerWorker =
        resolveThreadsPerWorker(options.threadsPerWorker);
    core_->options.listen = resolveDistListen(options.listen);
    core_->options.secret = resolveDistSecret(options.secret);
    // Without a configured listener the pool binds an ephemeral
    // loopback port for its own workers, and without a configured
    // secret it mints one, so no other local process can join.
    core_->elastic = !core_->options.listen.empty();
    if (!core_->elastic) {
        core_->options.listen = "127.0.0.1:0";
        if (core_->options.secret.empty())
            core_->options.secret = mintSecret();
    }
    if (core_->options.numWorkers < 0 ||
        (core_->options.numWorkers == 0 && !core_->elastic))
        throw std::invalid_argument(
            "ProcessPool: numWorkers must be >= 1 (or >= 0 with "
            "DistOptions::listen set, for an elastic fleet)");
    if (core_->options.numWorkers > 0)
        core_->workerPath = resolveWorkerPath(options.workerPath);

    int wake[2];
    if (::pipe2(wake, O_CLOEXEC | O_NONBLOCK) != 0)
        throw std::runtime_error("ProcessPool: pipe2 failed");
    core_->wakeRead = wake[0];
    core_->wakeWrite = wake[1];

    try {
        core_->listenFd =
            openListener(core_->options.listen, &core_->boundPort);
        const std::string connect_to =
            connectAddressFor(core_->options.listen, core_->boundPort);
        for (int i = 0; i < core_->options.numWorkers; ++i) {
            const int pid = spawnConnectWorker(
                core_->workerPath, connect_to,
                core_->options.heartbeatIntervalMs,
                core_->options.threadsPerWorker, core_->options.secret);
            core_->spawned.push_back({pid, false});
            core_->stats.workersSpawned++;
        }
    } catch (...) {
        for (const SpawnedPid& sp : core_->spawned) {
            ::kill(sp.pid, SIGKILL);
            ::waitpid(sp.pid, nullptr, 0);
        }
        if (core_->listenFd >= 0)
            ::close(core_->listenFd);
        ::close(core_->wakeRead);
        ::close(core_->wakeWrite);
        throw;
    }

    // The monitor owns accepts and handshakes from here on; wait for
    // the local membership to settle (every spawned worker has either
    // completed its Hello or died) so a broken worker setup surfaces
    // here -- where the engine can still fall back to in-process
    // execution -- instead of hanging the first submitted batch. Only
    // a remote-only coordinator (numWorkers == 0) may start empty.
    monitor_ = std::thread(&ProcessPool::monitorLoop, core_);
    bool up = core_->options.numWorkers == 0;
    {
        std::unique_lock<std::mutex> lock(core_->mutex);
        const auto deadline = Clock::now() + std::chrono::seconds(10);
        core_->membershipCv.wait_until(lock, deadline, [&] {
            return core_->localHelloCount + core_->localDeadCount >=
                   static_cast<std::size_t>(core_->options.numWorkers);
        });
        for (const WorkerProc& w : core_->workers)
            up = up || (w.alive && w.helloSeen && w.pid > 0);
        if (!up)
            core_->stop = true;
    }
    if (!up) {
        const std::uint8_t wake_byte = 0;
        (void)!::write(core_->wakeWrite, &wake_byte, 1);
        monitor_.join();
        ::close(core_->wakeRead);
        ::close(core_->wakeWrite);
        throw std::runtime_error(
            "ProcessPool: no worker came up (path: " +
            core_->workerPath + ")");
    }
}

ProcessPool::~ProcessPool()
{
    {
        std::lock_guard<std::mutex> lock(core_->mutex);
        core_->stop = true;
        // Retire still-queued shards exactly like engine destruction:
        // refund their queries and mark them cancelled; in-flight
        // shards drain below.
        while (!core_->pending.empty()) {
            Shard shard = std::move(core_->pending.front());
            core_->pending.pop_front();
            const std::size_t n = shard.hi - shard.lo;
            shard.batch->cost->refundQueries(n);
            std::lock_guard<std::mutex> batch_lock(shard.batch->m);
            shard.batch->progress.pointsCancelled += n;
            shard.batch->accountShardsLocked(1);
        }
    }
    const std::uint8_t wake_byte = 0;
    (void)!::write(core_->wakeWrite, &wake_byte, 1);
    if (monitor_.joinable())
        monitor_.join();
    ::close(core_->wakeRead);
    ::close(core_->wakeWrite);
}

// ----------------------------------------------------------- monitor

void
ProcessPool::monitorLoop(const std::shared_ptr<PoolCore>& core_ptr)
{
    PoolCore& core = *core_ptr;
    std::unique_lock<std::mutex> lock(core.mutex);
    for (;;) {
        // Shutdown: queued shards are gone (the destructor retired
        // them; crash-requeues drain through the survivors), so once
        // nothing is in flight the workers can be released.
        if (core.stop) {
            bool any_alive = false;
            bool inflight = false;
            for (const WorkerProc& w : core.workers) {
                any_alive |= w.alive;
                inflight |= w.alive && !w.inflight.empty();
            }
            // No joiners are accepted during shutdown, so an empty
            // elastic pool can never drain crash-requeued shards:
            // fail them rather than hang the join below.
            if (!any_alive && !core.pending.empty())
                failAllPendingLocked(
                    core,
                    "distributed execution: all worker processes died");
            if (!inflight && core.pending.empty())
                break;
        }

        // Garbage-collect fully-retired members so a long-lived
        // elastic pool doesn't accumulate dead entries.
        core.workers.erase(
            std::remove_if(core.workers.begin(), core.workers.end(),
                           [](const WorkerProc& w) { return !w.alive; }),
            core.workers.end());

        // Reap locals that died before completing their Hello (e.g.
        // exec failure): no member exists to raise EOF, so the
        // constructor's membership wait settles through this scan.
        for (SpawnedPid& sp : core.spawned) {
            if (sp.bound || sp.pid <= 0)
                continue;
            if (::waitpid(sp.pid, nullptr, WNOHANG) != 0) {
                sp.pid = -1;
                core.localDeadCount++;
                core.stats.workersLost++;
                core.membershipCv.notify_all();
            }
        }

        dispatchLocked(core);
        maybeStealLocked(core);

        std::vector<struct pollfd> fds;
        std::vector<std::size_t> idx; // worker index per pollfd tail
        fds.push_back({core.wakeRead, POLLIN, 0});
        const bool accepting = !core.stop;
        if (accepting)
            fds.push_back({core.listenFd, POLLIN, 0});
        const std::size_t head = fds.size();
        for (std::size_t i = 0; i < core.workers.size(); ++i) {
            if (core.workers[i].alive) {
                fds.push_back({core.workers[i].fd, POLLIN, 0});
                idx.push_back(i);
            }
        }

        lock.unlock();
        ::poll(fds.data(), fds.size(),
               std::max(10, core.options.heartbeatIntervalMs / 2));

        if (fds[0].revents & POLLIN) {
            std::uint8_t drain[64];
            while (::read(core.wakeRead, drain, sizeof(drain)) > 0) {
            }
        }

        std::vector<Completion> completed;
        lock.lock();
        if (accepting && (fds[1].revents & POLLIN))
            acceptJoinersLocked(core);
        for (std::size_t k = head; k < fds.size(); ++k) {
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            WorkerProc& w = core.workers[idx[k - head]];
            if (!w.alive)
                continue;
            bool dead = false;
            for (;;) {
                std::uint8_t buf[65536];
                const ssize_t r = ::recv(w.fd, buf, sizeof(buf), 0);
                if (r > 0) {
                    try {
                        w.decoder.feed(buf,
                                       static_cast<std::size_t>(r));
                        while (auto frame = w.decoder.next()) {
                            if (!handleFrameLocked(core, w,
                                                   std::move(*frame),
                                                   completed)) {
                                dead = true;
                                break;
                            }
                        }
                    } catch (const WireError&) {
                        dead = true;
                    }
                    if (dead)
                        break;
                    continue;
                }
                if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                    break;
                if (r < 0 && errno == EINTR)
                    continue;
                dead = true; // EOF or hard error: the worker is gone
                break;
            }
            if (dead)
                markWorkerDeadLocked(core, w);
        }

        // Liveness scan AFTER the reads: a dispatch send that blocked
        // on one stuck worker must not get healthy workers killed on
        // stale timestamps — their heartbeats were just drained, so
        // lastHeard is fresh here. Silent workers past the timeout
        // are dead (their shard requeues and re-dispatches next
        // iteration). The same timeout bounds how long an accepted
        // connection may dawdle before answering its challenge.
        const auto now = Clock::now();
        for (WorkerProc& w : core.workers) {
            if (w.alive &&
                now - w.lastHeard > std::chrono::milliseconds(
                                        core.options.heartbeatTimeoutMs))
                markWorkerDeadLocked(core, w);
        }
        lock.unlock();

        // Value writes, streaming callbacks, and progress accounting
        // happen outside the core lock: shards are disjoint, and
        // callbacks may take arbitrary user time.
        for (Completion& done : completed)
            applyCompletion(done);

        lock.lock();
    }

    // Stop accepting joiners, then release the members: a Shutdown
    // frame lets each exit cleanly and closing the socket backs it up
    // with EOF, but neither reaches a stopped/wedged process — after
    // a short grace period a local worker is SIGKILLed so the
    // blocking reap (and therefore ~ProcessPool's join) can never
    // hang. Remote members get the frame + EOF and are on their own.
    if (core.listenFd >= 0) {
        ::close(core.listenFd);
        core.listenFd = -1;
    }
    for (WorkerProc& w : core.workers) {
        if (!w.alive)
            continue;
        sendFrame(core, w, FrameType::Shutdown, {});
        ::close(w.fd);
        w.fd = -1;
        w.alive = false;
        if (w.pid <= 0)
            continue;
        bool reaped = false;
        for (int spin = 0; spin < 50 && !reaped; ++spin) {
            if (::waitpid(w.pid, nullptr, WNOHANG) != 0)
                reaped = true; // exited (or already gone)
            else
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        if (!reaped) {
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, nullptr, 0);
        }
        w.pid = -1;
    }
    for (SpawnedPid& sp : core.spawned) {
        if (sp.bound || sp.pid <= 0)
            continue;
        ::kill(sp.pid, SIGKILL);
        ::waitpid(sp.pid, nullptr, 0);
        sp.pid = -1;
    }
}

// ------------------------------------------------------------ submit

BatchHandle
ProcessPool::submit(CostFunction& cost,
                    std::vector<std::vector<double>>&& points,
                    SubmitOptions options)
{
    const std::optional<DistPayload> payload = cost.distPayload();
    if (!payload)
        throw std::invalid_argument(
            "ProcessPool::submit: cost function is not distributable");
    for (const auto& p : points)
        cost.checkParams(p);

    // Pin the kernel ISA concretely: "auto" must not resolve
    // differently in a worker than it would here, or distributed
    // values could drift from in-process values by rounding.
    CostSpec spec;
    spec.circuit = *payload->circuit;
    spec.hamiltonian = *payload->hamiltonian;
    spec.kernel = payload->kernel;
    spec.kernel.isa = kernels::kernelTable(spec.kernel.isa).isa;
    std::vector<std::uint8_t> cost_payload = encodeCostSpec(spec);

    std::unique_lock<std::mutex> lock(core_->mutex);
    if (core_->stop)
        throw std::runtime_error(
            "ProcessPool::submit: pool is shutting down");
    std::size_t ready = 0;
    std::size_t total_capacity = 0;
    std::size_t max_capacity = 1;
    for (const WorkerProc& w : core_->workers) {
        if (!w.alive || !w.helloSeen)
            continue;
        ready++;
        total_capacity += w.capacity;
        max_capacity = std::max<std::size_t>(max_capacity, w.capacity);
    }
    // An elastic pool accepts work while momentarily empty -- shards
    // queue until a member joins. Size them for a single-threaded
    // joiner; stealing rebalances if a wider fleet shows up.
    if (ready == 0 && !core_->elastic)
        throw std::runtime_error(
            "ProcessPool::submit: no live workers");
    if (total_capacity == 0)
        total_capacity = 1;

    // Nothing below throws: commit the batch.
    auto batch = std::make_shared<RemoteBatch>();
    batch->core = core_;
    batch->points = std::move(points);
    batch->cost = &cost;
    batch->costId = spec.costId;
    batch->options = std::move(options);
    const std::size_t count = batch->points.size();
    batch->out.resize(count);
    batch->progress.pointsTotal = count;
    if (count == 0) {
        batch->finished = true;
        return BatchHandle(std::move(batch));
    }

    core_->costs.emplace(spec.costId, std::move(cost_payload));
    // Bound the spec map: retire payloads no outstanding shard
    // references (a resubmission of the same content re-encodes its
    // payload above, so eviction never loses information). Pending
    // and in-flight ids stay, because dispatch and unknown-cost
    // recovery both need their bytes.
    constexpr std::size_t kMaxCostSpecs = 32;
    if (core_->costs.size() > kMaxCostSpecs) {
        std::unordered_set<std::uint64_t> live;
        live.insert(spec.costId);
        for (const Shard& s : core_->pending)
            live.insert(s.batch->costId);
        for (const WorkerProc& w : core_->workers) {
            for (const Shard& s : w.inflight)
                live.insert(s.batch->costId);
        }
        for (auto it = core_->costs.begin();
             it != core_->costs.end();) {
            it = live.count(it->first) ? std::next(it)
                                       : core_->costs.erase(it);
        }
    }
    batch->baseOrdinal = cost.reserve(count);

    // Shards: contiguous slices, roughly four per unit of advertised
    // capacity by default (a T-thread worker counts T) -- small enough
    // that a crash forfeits little and stragglers rebalance, large
    // enough to amortize the frame round-trip, keep worker-side prefix
    // caches warm, and feed the widest worker's thread pool. With
    // homogeneous single-threaded workers this degenerates to the
    // pre-hybrid count / (4 * workers).
    std::size_t shard_size = core_->options.shardSize;
    if (shard_size == 0)
        shard_size = std::max<std::size_t>(
            1, count * max_capacity / (4 * total_capacity));
    const std::uint64_t enqueued_ns = obs::Tracer::nowNs();
    for (std::size_t lo = 0; lo < count; lo += shard_size) {
        Shard shard;
        shard.batch = batch;
        shard.lo = lo;
        shard.hi = std::min(count, lo + shard_size);
        shard.taskId = core_->nextTaskId++;
        shard.enqueuedNs = enqueued_ns;
        core_->pending.push_back(std::move(shard));
        batch->shardsTotal++;
    }
    lock.unlock();

    const std::uint8_t wake_byte = 0;
    (void)!::write(core_->wakeWrite, &wake_byte, 1);
    return BatchHandle(std::move(batch));
}

// ------------------------------------------------------------- misc

int
ProcessPool::numWorkers() const
{
    return core_->options.numWorkers;
}

bool
ProcessPool::healthy() const
{
    std::lock_guard<std::mutex> lock(core_->mutex);
    if (core_->elastic && !core_->stop)
        return true;
    for (const WorkerProc& w : core_->workers) {
        if (w.alive && w.helloSeen)
            return true;
    }
    return false;
}

std::vector<int>
ProcessPool::workerPids() const
{
    std::lock_guard<std::mutex> lock(core_->mutex);
    std::vector<int> pids;
    for (const WorkerProc& w : core_->workers) {
        if (w.alive && w.pid > 0)
            pids.push_back(w.pid);
    }
    return pids;
}

std::uint16_t
ProcessPool::listenPort() const
{
    return core_->boundPort; // fixed before the monitor starts
}

PoolStats
ProcessPool::stats() const
{
    std::lock_guard<std::mutex> lock(core_->mutex);
    return core_->stats;
}

} // namespace dist
} // namespace oscar
