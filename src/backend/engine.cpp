#include "src/backend/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "src/dist/process_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oscar {

/**
 * Shared state of one submitted batch. Handles, queued workers, and
 * waiting threads all hold shared_ptrs, so the state outlives the
 * engine and any of its consumers individually.
 *
 * Chunk claiming linearizes on the atomic `nextChunk`: workers and
 * waiting threads fetch_add to claim, cancel() exchanges the counter
 * to the end to claim (and skip) everything unstarted. Claimed chunk
 * indices are therefore disjoint across all participants, which is
 * what makes results, query counts, and callbacks race-free.
 */
struct EngineBatch final : BatchHandle::Control
{
    // -- immutable after submit -------------------------------------
    std::vector<std::vector<double>> points;
    std::function<double(std::size_t)> mapFn; ///< map mode when set
    CostFunction* cost = nullptr;             ///< null in map mode
    /** Per-chunk replicas; empty = evaluate `cost` itself. */
    std::vector<std::unique_ptr<CostFunction>> replicas;
    std::vector<ExecutionEngine::Chunk> chunks;
    std::uint64_t baseOrdinal = 0;
    /** submitAt batch: ordinals are external, never refund queries. */
    bool pinnedOrdinals = false;
    SubmitOptions options;
    /** Submission timestamp; feeds the batch-latency histogram when
     *  the last chunk accounts. 0 when metrics are off. */
    std::uint64_t submittedNs = 0;

    /** Next chunk index to claim (may overshoot chunks.size()). */
    std::atomic<std::size_t> nextChunk{0};

    mutable std::mutex m; ///< guards the progress state below
    std::condition_variable cv;
    std::size_t chunksAccounted = 0; ///< executed or skipped
    bool finished = false;
    std::exception_ptr error;
    std::vector<double> out;
    BatchStats progress;

    /** Serializes onComplete invocations (never held with `m`). */
    std::mutex callbackMutex;

    // -- Control ----------------------------------------------------

    bool
    done() const override
    {
        std::lock_guard<std::mutex> lock(m);
        return finished;
    }

    void
    wait() override
    {
        // Help: claim and execute chunks this thread can take. This
        // is also the only execution path for inline batches (serial
        // engine, non-replicable cost), which are never enqueued.
        const std::size_t total = chunks.size();
        for (;;) {
            const std::size_t c = nextChunk.fetch_add(1);
            if (c >= total)
                break;
            runChunk(c);
        }
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
        const std::size_t total = chunks.size();
        // Claim everything unstarted in one shot; claims already
        // handed to workers (indices < claimed) still run to
        // completion.
        std::size_t claimed = nextChunk.exchange(total);
        claimed = std::min(claimed, total);
        if (claimed >= total)
            return false;
        std::size_t skipped = 0;
        for (std::size_t c = claimed; c < total; ++c)
            skipped += chunks[c].hi - chunks[c].lo;
        if (cost && !pinnedOrdinals)
            cost->refundQueries(skipped);
        std::lock_guard<std::mutex> lock(m);
        progress.pointsCancelled += skipped;
        chunksAccounted += total - claimed;
        if (chunksAccounted == total) {
            finished = true;
            cv.notify_all();
        }
        return true;
    }

    BatchStats
    stats() const override
    {
        std::lock_guard<std::mutex> lock(m);
        return progress;
    }

    /** Execute chunk c (worker or waiting thread). */
    void
    runChunk(std::size_t c)
    {
        const ExecutionEngine::Chunk chunk = chunks[c];
        const std::size_t n = chunk.hi - chunk.lo;
        obs::ScopedSpan span(obs::SpanCategory::Engine, "chunk", c, n);
        std::exception_ptr failure;
        KernelStats delta;
        try {
            if (mapFn) {
                for (std::size_t i = chunk.lo; i < chunk.hi; ++i)
                    out[i] = mapFn(i);
            } else {
                CostFunction* evaluator =
                    replicas.empty() ? cost : replicas[c].get();
                const KernelStats before = evaluator->kernelStats();
                evaluator->evaluateBatchImpl(
                    std::span<const std::vector<double>>(points).subspan(
                        chunk.lo, n),
                    baseOrdinal + chunk.lo, out.data() + chunk.lo);
                delta = evaluator->kernelStats() - before;
            }
        } catch (...) {
            failure = std::current_exception();
        }

        // Stream completions before accounting, so that once done()
        // flips every callback has already returned. A throwing
        // callback must not escape (it would terminate a worker
        // thread, or leave the batch unfinished on the waiter-help
        // path); it fails the batch like an evaluation error, though
        // the values themselves stand.
        std::exception_ptr callback_failure;
        if (!failure && options.onComplete) {
            std::lock_guard<std::mutex> lock(callbackMutex);
            try {
                for (std::size_t i = chunk.lo; i < chunk.hi; ++i)
                    options.onComplete(i, out[i]);
            } catch (...) {
                callback_failure = std::current_exception();
            }
        }

        if (obs::metricsEnabled()) {
            static obs::Counter& points_done =
                obs::Registry::global().counter(
                    "engine.points.completed");
            static obs::Counter& cache_hits =
                obs::Registry::global().counter("engine.cache.hits");
            static obs::Counter& cache_lookups =
                obs::Registry::global().counter(
                    "engine.cache.lookups");
            if (!failure) {
                points_done.add(n);
                cache_hits.add(delta.cacheHits);
                cache_lookups.add(delta.cacheLookups);
            }
        }

        std::lock_guard<std::mutex> lock(m);
        if (failure) {
            if (!error)
                error = failure;
        } else {
            progress.pointsCompleted += n;
            progress.kernel += delta;
            if (callback_failure && !error)
                error = callback_failure;
        }
        if (++chunksAccounted == chunks.size()) {
            finished = true;
            cv.notify_all();
            if (submittedNs != 0 && obs::metricsEnabled()) {
                static obs::Histogram& latency =
                    obs::Registry::global().histogram(
                        "engine.batch.latency.ns");
                latency.observe(obs::Tracer::nowNs() - submittedNs);
            }
        }
    }
};

// ------------------------------------------------------------ handle

bool
BatchHandle::done() const
{
    return state_->done();
}

void
BatchHandle::wait()
{
    state_->wait();
}

std::vector<double>
BatchHandle::get()
{
    return state_->get();
}

bool
BatchHandle::cancel()
{
    return state_->cancel();
}

BatchStats
BatchHandle::stats() const
{
    return state_->stats();
}

// ------------------------------------------------------------ engine

int
ExecutionEngine::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ExecutionEngine::ExecutionEngine()
    : ExecutionEngine(EngineOptions{})
{
}

ExecutionEngine::ExecutionEngine(int num_threads)
    : ExecutionEngine(EngineOptions{num_threads, 4, {}})
{
}

ExecutionEngine::ExecutionEngine(const EngineOptions& options)
    : minPointsPerThread_(std::max<std::size_t>(1,
                                                options.minPointsPerThread)),
      dist_(options.dist)
{
    // Resolve OSCAR_TRACE / OSCAR_METRICS / OSCAR_TRACE_BUFFER_KB
    // once, fail-fast like the distribution knobs below (a malformed
    // toggle throws here, not on the first recorded span).
    obs::applyEnv();
    // Distribution is opt-in per engine (EngineOptions::dist) or
    // process-wide via OSCAR_DIST_WORKERS; a negative worker count
    // pins it off regardless of the environment. Like
    // OSCAR_KERNEL_ISA, a malformed value throws instead of silently
    // running without the distribution the user asked for. The pool
    // itself is spawned lazily on the first distributable submission,
    // so engines that never ship a batch never fork.
    if (dist_.numWorkers == 0) {
        if (const char* env = std::getenv("OSCAR_DIST_WORKERS")) {
            char* end = nullptr;
            const long parsed = std::strtol(env, &end, 10);
            if (end == env || *end != '\0' || parsed > 1024 ||
                parsed < -1)
                throw std::runtime_error(
                    "OSCAR_DIST_WORKERS: expected a worker count "
                    "(-1..1024), got \"" +
                    std::string(env) + "\"");
            dist_.numWorkers = static_cast<int>(parsed);
        }
    }
    // Resolve the per-worker thread count and the TCP fleet knobs
    // eagerly for the same fail-fast reason: a malformed
    // OSCAR_DIST_THREADS / OSCAR_DIST_LISTEN / OSCAR_DIST_SECRET
    // throws here, at engine construction, not on the first
    // distributed batch.
    dist_.threadsPerWorker =
        dist::resolveThreadsPerWorker(dist_.threadsPerWorker);
    dist_.listen = dist::resolveDistListen(dist_.listen);
    dist_.secret = dist::resolveDistSecret(dist_.secret);
    // A listener alone (numWorkers == 0) is a valid fleet: the
    // coordinator serves whoever connects. A negative worker count
    // still pins distribution off entirely.
    distEnabled_ = dist_.numWorkers > 0 ||
                   (dist_.numWorkers == 0 && !dist_.listen.empty());

    // Threads spawn last: everything above may throw, and unwinding
    // with joinable workers would terminate. The submitting thread
    // participates in every wait, so spawn one fewer worker than the
    // requested parallelism.
    const int threads = resolveThreads(options.numThreads);
    for (int t = 1; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ExecutionEngine::~ExecutionEngine()
{
    std::deque<std::shared_ptr<EngineBatch>> leftover;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        leftover.swap(queue_);
    }
    wake_.notify_all();
    for (std::thread& w : workers_)
        w.join();
    // Retire whatever the workers had not claimed: outstanding handles
    // see a finished (cancelled) batch instead of hanging forever.
    for (const auto& batch : leftover)
        batch->cancel();
    // pool_ (if spawned) is destroyed next: it cancels queued shards,
    // drains in-flight ones, and reaps the worker processes.
}

int
ExecutionEngine::numThreads() const
{
    return static_cast<int>(workers_.size()) + 1;
}

ExecutionEngine&
ExecutionEngine::serial()
{
    static ExecutionEngine engine(1);
    return engine;
}

std::vector<ExecutionEngine::Chunk>
ExecutionEngine::planChunks(std::size_t count) const
{
    const std::size_t threads = workers_.size() + 1;
    if (threads <= 1 || count < 2 * minPointsPerThread_)
        return {};
    const std::size_t max_chunks =
        std::max<std::size_t>(1, count / minPointsPerThread_);
    const std::size_t n = std::min(threads, max_chunks);
    if (n <= 1)
        return {};
    std::vector<Chunk> chunks;
    chunks.reserve(n);
    const std::size_t base = count / n;
    const std::size_t rem = count % n;
    std::size_t lo = 0;
    for (std::size_t c = 0; c < n; ++c) {
        const std::size_t size = base + (c < rem ? 1 : 0);
        chunks.push_back({lo, lo + size});
        lo += size;
    }
    return chunks;
}

void
ExecutionEngine::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_)
            return;
        std::shared_ptr<EngineBatch> batch = queue_.front();
        const std::size_t total = batch->chunks.size();
        const std::size_t c = batch->nextChunk.fetch_add(1);
        if (c >= total) {
            // Fully claimed (possibly by a helping waiter or cancel):
            // retire it from the queue and look at the next batch.
            queue_.pop_front();
            continue;
        }
        if (c + 1 == total)
            queue_.pop_front(); // nothing left for anyone else to claim
        lock.unlock();
        batch->runChunk(c);
        batch.reset();
        lock.lock();
    }
}

BatchHandle
ExecutionEngine::tryDistribute(CostFunction& cost,
                               std::vector<std::vector<double>>& points,
                               const SubmitOptions& options)
{
    if (!distEnabled_ || points.size() < dist_.minPointsToDistribute)
        return {};
    if (!cost.distPayload())
        return {};
    std::call_once(poolOnce_, [&] {
        try {
            pool_ = std::make_unique<dist::ProcessPool>(dist_);
        } catch (const std::exception& e) {
            std::fprintf(stderr,
                         "oscar: distributed execution disabled: %s\n",
                         e.what());
        }
    });
    if (!pool_ || !pool_->healthy())
        return {};
    try {
        return pool_->submit(cost, std::move(points), options);
    } catch (const std::exception& e) {
        // Pool refused (e.g. every worker died between the health
        // check and the submit): fall back to the thread pool. The
        // points vector is only moved on success.
        std::fprintf(stderr,
                     "oscar: distributed submit failed (%s); "
                     "running in-process\n",
                     e.what());
        return {};
    }
}

BatchHandle
ExecutionEngine::submitBatch(CostFunction* cost,
                             std::vector<std::vector<double>> points,
                             std::function<double(std::size_t)> map_fn,
                             std::size_t count, SubmitOptions options,
                             const std::uint64_t* pinned_base)
{
    if (cost && count > 0) {
        // Validate every point before counting anything, exactly like
        // the scalar path, so query/ordinal accounting cannot diverge
        // by thread count or batch outcome. Distribution is tried
        // before the local batch state exists, so a remote submission
        // never pays for a count-sized output buffer it will discard.
        // Pinned batches are already a distributed shard -- they must
        // execute here, under the coordinator's ordinals.
        for (const auto& p : points)
            cost->checkParams(p);
        if (!pinned_base) {
            BatchHandle remote = tryDistribute(*cost, points, options);
            if (remote.valid())
                return remote;
        }
    }

    auto batch = std::make_shared<EngineBatch>();
    batch->points = std::move(points);
    batch->mapFn = std::move(map_fn);
    batch->cost = cost;
    batch->pinnedOrdinals = pinned_base != nullptr;
    batch->options = std::move(options);
    if (obs::metricsEnabled())
        batch->submittedNs = obs::Tracer::nowNs();
    batch->out.resize(count);
    batch->progress.pointsTotal = count;

    if (count == 0) {
        batch->finished = true;
        return BatchHandle(std::move(batch));
    }

    std::vector<Chunk> chunks = planChunks(count);
    if (chunks.empty() && batch->options.eager && !workers_.empty())
        chunks = {Chunk{0, count}};
    bool enqueue = !workers_.empty() && !chunks.empty();
    if (cost) {
        if (enqueue) {
            // One replica per chunk; a non-replicable cost degrades to
            // deferred inline execution on the waiting thread.
            std::unique_ptr<CostFunction> proto = cost->clone();
            if (!proto) {
                enqueue = false;
            } else {
                batch->replicas.reserve(chunks.size());
                batch->replicas.push_back(std::move(proto));
                for (std::size_t c = 1; c < chunks.size(); ++c) {
                    auto replica = cost->clone();
                    if (!replica)
                        throw std::runtime_error(
                            "ExecutionEngine: clone() became unavailable "
                            "mid-batch");
                    batch->replicas.push_back(std::move(replica));
                }
            }
        }
        batch->baseOrdinal =
            pinned_base ? *pinned_base : cost->reserve(count);
    }

    if (enqueue)
        batch->chunks = std::move(chunks);
    else
        batch->chunks = {Chunk{0, count}};

    BatchHandle handle(batch);
    if (enqueue) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(batch));
        }
        wake_.notify_all();
    }
    return handle;
}

BatchHandle
ExecutionEngine::submit(CostFunction& cost,
                        std::vector<std::vector<double>> points,
                        SubmitOptions options)
{
    const std::size_t count = points.size();
    return submitBatch(&cost, std::move(points), nullptr, count,
                       std::move(options));
}

BatchHandle
ExecutionEngine::submitAt(CostFunction& cost,
                          std::vector<std::vector<double>> points,
                          std::uint64_t base_ordinal,
                          SubmitOptions options)
{
    const std::size_t count = points.size();
    return submitBatch(&cost, std::move(points), nullptr, count,
                       std::move(options), &base_ordinal);
}

BatchHandle
ExecutionEngine::submitGenerated(CostFunction& cost, std::size_t count,
                                 const PointFn& point_at,
                                 SubmitOptions options)
{
    std::vector<std::vector<double>> points;
    points.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        points.push_back(point_at(i));
    return submit(cost, std::move(points), std::move(options));
}

std::vector<double>
ExecutionEngine::evaluate(CostFunction& cost,
                          const std::vector<std::vector<double>>& points)
{
    if (points.empty())
        return {};
    return submit(cost, points).get();
}

std::vector<double>
ExecutionEngine::evaluateGenerated(CostFunction& cost, std::size_t count,
                                   const PointFn& point_at)
{
    return submitGenerated(cost, count, point_at).get();
}

std::vector<double>
ExecutionEngine::map(std::size_t count,
                     const std::function<double(std::size_t)>& fn)
{
    if (count == 0)
        return {};
    return submitBatch(nullptr, {}, fn, count, {}).get();
}

} // namespace oscar
