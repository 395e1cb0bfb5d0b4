#include "src/dist/worker.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/backend/engine.h"
#include "src/backend/statevector_backend.h"
#include "src/dist/options.h"
#include "src/dist/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oscar {
namespace dist {

namespace {

/** Blocking full-buffer write (MSG_NOSIGNAL: EPIPE, not SIGPIPE). */
bool
writeAll(int fd, const std::uint8_t* data, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(w);
    }
    return true;
}

/**
 * Frame writes from the main loop and the heartbeat thread interleave
 * on one fd; the mutex keeps frames whole.
 */
class FrameSender
{
  public:
    explicit FrameSender(int fd) : fd_(fd) {}

    bool
    send(FrameType type, std::span<const std::uint8_t> payload)
    {
        const std::vector<std::uint8_t> bytes =
            encodeFrame(type, payload);
        std::lock_guard<std::mutex> lock(mutex_);
        return writeAll(fd_, bytes.data(), bytes.size());
    }

  private:
    int fd_;
    std::mutex mutex_;
};

/**
 * Periodic heartbeat until stopped (or the pipe breaks). `on_beat`
 * runs before each beat on the heartbeat thread -- the telemetry
 * shipping hook (FrameSender's mutex keeps its frames whole against
 * the main loop's).
 */
class Heartbeat
{
  public:
    Heartbeat(FrameSender& sender, int period_ms,
              std::function<bool()> on_beat = {})
        : sender_(sender), onBeat_(std::move(on_beat)),
          periodMs_(std::max(10, period_ms)),
          thread_([this] { run(); })
    {
    }

    ~Heartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            lock.unlock();
            if (onBeat_ && !onBeat_()) {
                lock.lock();
                return;
            }
            if (!sender_.send(FrameType::Heartbeat, {})) {
                // Pool gone; the main loop will see EOF and exit.
                lock.lock();
                return;
            }
            lock.lock();
            cv_.wait_for(lock, std::chrono::milliseconds(periodMs_),
                         [&] { return stop_; });
        }
    }

    FrameSender& sender_;
    std::function<bool()> onBeat_;
    int periodMs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * Test/bench hook: OSCAR_WORKER_SLOW_US sleeps this many microseconds
 * per point before each evaluation sub-batch, turning the worker into
 * a deliberate straggler (steal-protocol and tail-latency coverage).
 * Strict like the other knobs: malformed input throws instead of
 * silently running at full speed.
 */
long
resolveWorkerSlowUs()
{
    const char* env = std::getenv("OSCAR_WORKER_SLOW_US");
    if (!env)
        return 0;
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0 || parsed > 10000000)
        throw std::runtime_error(
            "OSCAR_WORKER_SLOW_US: expected a per-point slowdown in "
            "microseconds (0..10000000), got \"" +
            std::string(env) + "\"");
    return parsed;
}

/** The shard currently being evaluated, sub-batch by sub-batch. */
struct ActiveShard
{
    TaskMsg task;
    CostFunction* cost = nullptr;
    /** Values for points [0, next); grows one sub-batch at a time. */
    std::vector<double> values;
    KernelStats kernel;
    std::size_t next = 0;
};

} // namespace

int
workerMain(int fd, int heartbeat_ms, int threads,
           const std::string& secret)
{
    obs::applyEnv(); // OSCAR_TRACE / OSCAR_METRICS travel via env

    FrameSender sender(fd);
    const long slow_us = resolveWorkerSlowUs();

    // Ship accumulated spans (drained: each span exactly once) and
    // the *cumulative* metrics snapshot (the coordinator replaces,
    // never accumulates, this worker's contribution). Piggybacked on
    // the heartbeat cadence and flushed before every Result so a
    // shard's spans never trail its values by more than one beat.
    const std::int32_t self_pid =
        static_cast<std::int32_t>(::getpid());
    const auto sendTelemetry = [&sender, self_pid]() -> bool {
        if (!obs::tracingEnabled() && !obs::metricsEnabled())
            return true;
        TelemetryMsg msg;
        msg.pid = self_pid;
        if (obs::tracingEnabled())
            msg.spans = obs::Tracer::global().drain();
        if (obs::metricsEnabled())
            msg.metrics = obs::Registry::global().snapshot();
        if (msg.spans.empty() && msg.metrics.empty())
            return true;
        return sender.send(FrameType::Telemetry,
                           encodeTelemetry(msg));
    };

    // The worker's own evaluation pool (hybrid process x thread
    // execution). 0 resolves to this host's hardware concurrency --
    // worker-side, since the coordinator may run on a different
    // machine class than its workers some day. Distribution is pinned
    // off: a worker forking worker pools of its own would fork-bomb
    // under a process-wide OSCAR_DIST_WORKERS.
    if (threads < 0)
        threads = 1;
    const int resolved = ExecutionEngine::resolveThreads(threads);
    EngineOptions engine_options;
    engine_options.numThreads = resolved;
    engine_options.dist.numWorkers = -1;
    // Sub-batches are a few points per thread; don't let the engine's
    // serial-small-batch heuristic collapse them onto one thread.
    engine_options.minPointsPerThread = 1;
    ExecutionEngine engine(engine_options);

    HelloMsg hello;
    hello.pid = static_cast<std::int32_t>(::getpid());
    hello.isa = kernels::defaultKernelTable().isa;
    hello.threads =
        static_cast<std::uint16_t>(std::min(resolved, 65535));

    FrameDecoder decoder;

    // Answer the pool's challenge inside the Hello; greeting
    // unprompted would be rejected as unauthenticated.
    bool challenged = false;
    while (!challenged) {
        std::uint8_t buf[4096];
        const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
        if (r == 0)
            return 1; // pool vanished mid-handshake
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return 1;
        }
        try {
            decoder.feed(buf, static_cast<std::size_t>(r));
            while (auto frame = decoder.next()) {
                if (frame->type == FrameType::Shutdown)
                    return 0;
                if (frame->type != FrameType::Challenge) {
                    std::fprintf(stderr,
                                 "oscar-worker: expected Challenge, "
                                 "got frame type %u\n",
                                 static_cast<unsigned>(frame->type));
                    return 2;
                }
                const ChallengeMsg challenge =
                    decodeChallenge(frame->payload);
                hello.authTag =
                    helloAuthTag(secret, challenge.nonce, hello);
                challenged = true;
            }
        } catch (const WireError& e) {
            std::fprintf(stderr, "oscar-worker: %s\n", e.what());
            return 2;
        }
    }

    // Greet first, then start heartbeating: the pool's membership
    // handshake keys on Hello arriving before anything else. The
    // Hello advertises the resolved thread count as this worker's
    // capacity, so the coordinator can size and route shards
    // proportionally.
    {
        WireWriter w;
        encodeHello(w, hello);
        if (!sender.send(FrameType::Hello, w.bytes()))
            return 1;
    }
    Heartbeat heartbeat(sender, heartbeat_ms, sendTelemetry);

    // Rebuilt evaluators, content-addressed by cost spec hash. The
    // pool sends each spec to each worker at most once; a spec's
    // prefix cache stays warm across every shard that references it.
    // The cache is bounded (FIFO eviction): each entry owns a
    // statevector and a prefix-checkpoint budget, so an unbounded map
    // would leak the worker's memory across a long-lived pipeline of
    // distinct specs. Evicting is safe because a Task naming an
    // evicted id answers with kTaskErrorUnknownCost, and the pool
    // re-sends the spec and requeues the shard.
    constexpr std::size_t kMaxCachedCosts = 16;
    std::unordered_map<std::uint64_t, std::unique_ptr<CostFunction>>
        costs;
    std::deque<std::uint64_t> cost_order;

    std::optional<ActiveShard> active;
    std::deque<TaskMsg> queue; // pipelined shards behind the active one

    // Sub-batch width: a few points per engine thread. Small enough
    // that a StealRequest is answered within one sub-batch, wide
    // enough to keep every thread busy between polls.
    const std::size_t chunk_points =
        static_cast<std::size_t>(std::max(1, resolved)) * 4;

    /** Send the Result for everything evaluated so far (may be a
     *  steal-shortened prefix). Clears the active shard. */
    const auto finishActive = [&]() -> bool {
        ResultMsg result;
        result.taskId = active->task.taskId;
        result.values = std::move(active->values);
        result.kernel = active->kernel;
        active.reset();
        if (!sendTelemetry())
            return false;
        return sender.send(FrameType::Result, encodeResult(result));
    };

    for (;;) {
        // Promote the next queued shard when idle.
        if (!active && !queue.empty()) {
            TaskMsg task = std::move(queue.front());
            queue.pop_front();
            const auto it = costs.find(task.costId);
            if (it == costs.end()) {
                TaskErrorMsg err;
                err.taskId = task.taskId;
                err.code = kTaskErrorUnknownCost;
                err.message = "unknown cost id";
                if (!sender.send(FrameType::TaskError,
                                 encodeTaskError(err)))
                    return 1;
                continue;
            }
            active.emplace();
            active->task = std::move(task);
            active->cost = it->second.get();
            active->values.reserve(active->task.points.size());
        }

        // Drain the socket: block when idle, peek between sub-batches
        // while evaluating (this is where steal requests land).
        struct pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, active ? 0 : -1);
        if (pr > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
            std::uint8_t buf[65536];
            const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
            if (r == 0)
                return 0; // pool closed the connection
            if (r < 0 && errno != EINTR)
                return 1;
            if (r > 0) {
                try {
                    decoder.feed(buf, static_cast<std::size_t>(r));
                    while (auto frame = decoder.next()) {
                        switch (frame->type) {
                          case FrameType::Shutdown:
                            return 0;
                          case FrameType::LoadCost: {
                            CostSpec spec =
                                decodeCostSpec(frame->payload);
                            auto cost =
                                std::make_unique<StatevectorCost>(
                                    std::move(spec.circuit),
                                    std::move(spec.hamiltonian));
                            cost->configureKernel(spec.kernel);
                            if (costs
                                    .try_emplace(spec.costId,
                                                 std::move(cost))
                                    .second)
                                cost_order.push_back(spec.costId);
                            // Evict oldest first, but never a cost an
                            // active or queued shard still references
                            // (active->cost points into the map).
                            std::unordered_set<std::uint64_t> in_use;
                            if (active)
                                in_use.insert(active->task.costId);
                            for (const TaskMsg& t : queue)
                                in_use.insert(t.costId);
                            while (costs.size() > kMaxCachedCosts) {
                                const auto victim = std::find_if(
                                    cost_order.begin(),
                                    cost_order.end(),
                                    [&](std::uint64_t id) {
                                        return !in_use.count(id);
                                    });
                                if (victim == cost_order.end())
                                    break; // all referenced; overshoot
                                costs.erase(*victim);
                                cost_order.erase(victim);
                            }
                            break;
                          }
                          case FrameType::Task:
                            queue.push_back(decodeTask(frame->payload));
                            break;
                          case FrameType::StealRequest: {
                            const StealRequestMsg msg =
                                decodeStealRequest(frame->payload);
                            if (active &&
                                active->task.taskId == msg.taskId) {
                                // Yield the unrun tail: grant first,
                                // then the Result for the evaluated
                                // prefix -- the coordinator shrinks
                                // the shard before the Result lands.
                                StealGrantMsg grant;
                                grant.taskId = msg.taskId;
                                grant.keep = active->next;
                                WireWriter w;
                                encodeStealGrant(w, grant);
                                if (!sender.send(FrameType::StealGrant,
                                                 w.bytes()))
                                    return 1;
                                if (active->next > 0) {
                                    if (!finishActive())
                                        return 1;
                                } else {
                                    active.reset();
                                }
                                break;
                            }
                            const auto qit = std::find_if(
                                queue.begin(), queue.end(),
                                [&](const TaskMsg& t) {
                                    return t.taskId == msg.taskId;
                                });
                            if (qit != queue.end()) {
                                // Not started: yield it whole.
                                StealGrantMsg grant;
                                grant.taskId = msg.taskId;
                                grant.keep = 0;
                                WireWriter w;
                                encodeStealGrant(w, grant);
                                if (!sender.send(FrameType::StealGrant,
                                                 w.bytes()))
                                    return 1;
                                queue.erase(qit);
                            }
                            // Unknown id: the shard finished before
                            // the request arrived; its full Result is
                            // already ahead on the wire. Ignore.
                            break;
                          }
                          default:
                            // Pool-to-worker protocol only; anything
                            // else is a framing bug worth dying
                            // loudly over.
                            std::fprintf(
                                stderr,
                                "oscar-worker: unexpected frame "
                                "type %u\n",
                                static_cast<unsigned>(frame->type));
                            return 2;
                        }
                    }
                } catch (const WireError& e) {
                    std::fprintf(stderr, "oscar-worker: %s\n",
                                 e.what());
                    return 2;
                }
            }
        }

        if (!active)
            continue;

        // One evaluation sub-batch across the worker's own thread
        // pool at its reserved ordinals; the per-chunk replicas share
        // the cost's prefix cache, so checkpoints stay warm across
        // shards and threads alike.
        const std::size_t total = active->task.points.size();
        const std::size_t lo = active->next;
        const std::size_t n = std::min(chunk_points, total - lo);
        if (n > 0) {
            if (slow_us > 0)
                std::this_thread::sleep_for(std::chrono::microseconds(
                    slow_us * static_cast<long>(n)));
            std::vector<std::vector<double>> chunk;
            chunk.reserve(n);
            for (std::size_t i = lo; i < lo + n; ++i)
                chunk.push_back(std::move(active->task.points[i]));
            try {
                BatchHandle handle = engine.submitAt(
                    *active->cost, std::move(chunk),
                    active->task.baseOrdinal + lo);
                std::vector<double> values = handle.get();
                active->kernel += handle.stats().kernel;
                active->values.insert(active->values.end(),
                                      values.begin(), values.end());
                active->next = lo + n;
            } catch (const std::exception& e) {
                TaskErrorMsg err;
                err.taskId = active->task.taskId;
                err.message = e.what();
                active.reset();
                if (!sender.send(FrameType::TaskError,
                                 encodeTaskError(err)))
                    return 1;
                continue;
            }
        }
        if (active->next >= total) {
            if (!finishActive())
                return 1;
        }
    }
}

namespace {

/** One TCP connect attempt to a validated "host:port"; -1 on failure. */
int
connectTo(const std::string& spec)
{
    const std::size_t colon = spec.rfind(':');
    const std::string host = spec.substr(0, colon);
    const std::string port = spec.substr(colon + 1);

    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 ||
        res == nullptr)
        return -1;

    int fd = -1;
    for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            break;
        }
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    return fd;
}

/** Retry for ~5s: a worker may start slightly before its pool. */
int
connectWithRetry(const std::string& spec)
{
    for (int attempt = 0; attempt < 25; ++attempt) {
        const int fd = connectTo(spec);
        if (fd >= 0)
            return fd;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return -1;
}

} // namespace

int
workerEntry(int argc, char** argv)
{
    int heartbeat_ms = 100;
    int threads = -1; // -1: consult OSCAR_DIST_THREADS below
    std::string connect;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--heartbeat-ms") == 0)
            heartbeat_ms = std::atoi(argv[i + 1]);
        else if (std::strcmp(argv[i], "--threads") == 0)
            threads = std::atoi(argv[i + 1]);
        else if (std::strcmp(argv[i], "--connect") == 0)
            connect = argv[i + 1];
    }
    try {
        if (threads < 0)
            threads = resolveThreadsPerWorker(-1);
        const std::string target = resolveDistConnect(connect);
        if (!target.empty()) {
            const std::string secret = resolveDistSecret("");
            const int sock = connectWithRetry(target);
            if (sock < 0) {
                std::fprintf(stderr,
                             "oscar-worker: cannot connect to %s\n",
                             target.c_str());
                return 1;
            }
            return workerMain(sock, heartbeat_ms, threads, secret);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "oscar-worker: %s\n", e.what());
        return 64;
    }
    std::fprintf(stderr,
                 "usage: oscar-worker --connect host:port "
                 "[--heartbeat-ms M] [--threads T]\n"
                 "(or OSCAR_DIST_CONNECT=host:port; the fleet secret "
                 "comes from OSCAR_DIST_SECRET)\n");
    return 64;
}

} // namespace dist
} // namespace oscar
