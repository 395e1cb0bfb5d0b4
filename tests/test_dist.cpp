/**
 * @file
 * Distributed execution subsystem tests:
 *
 *  - a ProcessPool's values are bit-identical to in-process
 *    evaluation for 1, 2, and 3 workers and any shard size (the
 *    distributed determinism contract);
 *  - fault tolerance: a worker SIGKILLed mid-batch (pipe-EOF path)
 *    and a worker SIGSTOPped (heartbeat-timeout path) both lead to
 *    the batch completing with bit-identical values and a nonzero
 *    requeue counter;
 *  - query/ordinal accounting, cancel-with-refund, streaming
 *    callbacks, and the engine-level routing: distributable costs go
 *    remote (BatchStats::pointsRemote), everything else stays on the
 *    thread pool, and a broken worker setup degrades to in-process
 *    execution instead of failing;
 *  - hybrid process x thread execution: values stay bit-identical
 *    across the workers x threadsPerWorker grid, depth-2 shard
 *    pipelining keeps workers fed (BatchStats::shardsPipelined), and
 *    worker-side kernel/prefix-cache counters aggregate into
 *    BatchStats::remoteKernel;
 *  - Oscar::reconstruct with OscarOptions::distributed produces the
 *    same samples and reconstruction as the in-process pipeline;
 *  - elastic TCP fleets: loopback-TCP pools stay bit-identical to
 *    in-process execution (with measured on-wire compression), a
 *    worker that joins mid-batch receives queued work, a SIGKILLed
 *    remote member's shards requeue onto survivors, per-point work
 *    stealing moves a straggler's unrun tail without changing a bit,
 *    a joiner with the wrong (or no) fleet secret is rejected before
 *    it can receive work -- by a configured secret and by the one a
 *    default pool mints -- and the OSCAR_DIST_LISTEN /
 *    OSCAR_DIST_CONNECT / OSCAR_DIST_SECRET resolvers reject
 *    malformed input loudly.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

extern char** environ;

#include "src/ansatz/qaoa.h"
#include "src/backend/engine.h"
#include "src/backend/statevector_backend.h"
#include "src/core/oscar.h"
#include "src/dist/process_pool.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"

namespace oscar {
namespace {

Graph
distGraph(int num_qubits)
{
    Rng rng(3);
    return random3RegularGraph(num_qubits, rng);
}

StatevectorCost
makeCost(const Graph& graph, int depth)
{
    return StatevectorCost(qaoaCircuit(graph, depth),
                           maxcutHamiltonian(graph));
}

std::vector<std::vector<double>>
randomPoints(std::size_t count, int dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> points;
    points.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<double> p(dim);
        for (double& v : p)
            v = rng.uniform(0.0, 6.28);
        points.push_back(std::move(p));
    }
    return points;
}

void
expectBitIdentical(const std::vector<double>& got,
                   const std::vector<double>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "point " << i;
}

TEST(DistPoolTest, ResolvesWorkerFromBuildTree)
{
    const std::string path = dist::ProcessPool::resolveWorkerPath("");
    EXPECT_NE(path.find("oscar-worker"), std::string::npos);
}

TEST(DistPoolTest, ExplicitBadWorkerPathThrows)
{
    EXPECT_THROW(dist::ProcessPool::resolveWorkerPath("/no/such/worker"),
                 std::runtime_error);
    dist::DistOptions options;
    options.numWorkers = 1;
    options.workerPath = "/no/such/worker";
    EXPECT_THROW(dist::ProcessPool pool(options), std::runtime_error);
}

TEST(DistPoolTest, ValuesBitIdenticalForAnyWorkerCountAndShardSize)
{
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(48, reference.numParams(), 11);
    const std::vector<double> want = reference.evaluateBatch(points);

    for (const int workers : {1, 2, 3}) {
        for (const std::size_t shard : {std::size_t{1}, std::size_t{5},
                                        std::size_t{64}}) {
            dist::DistOptions options;
            options.numWorkers = workers;
            options.shardSize = shard;
            dist::ProcessPool pool(options);
            StatevectorCost cost = makeCost(graph, 1);
            auto pts = points;
            const std::vector<double> got =
                pool.submit(cost, std::move(pts)).get();
            expectBitIdentical(got, want);
            EXPECT_EQ(cost.numQueries(), points.size());
        }
    }
}

TEST(DistPoolTest, NonDistributableCostIsRejected)
{
    dist::DistOptions options;
    options.numWorkers = 1;
    dist::ProcessPool pool(options);
    LambdaCost lambda(
        2, [](const std::vector<double>& p) { return p[0] + p[1]; },
        /*thread_safe=*/true);
    auto points = randomPoints(4, 2, 1);
    EXPECT_THROW(pool.submit(lambda, std::move(points)),
                 std::invalid_argument);
}

TEST(DistPoolTest, StreamingCallbacksReportEveryPointOnce)
{
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(40, reference.numParams(), 21);
    const std::vector<double> want = reference.evaluateBatch(points);

    dist::DistOptions options;
    options.numWorkers = 2;
    options.shardSize = 4;
    dist::ProcessPool pool(options);
    StatevectorCost cost = makeCost(graph, 1);

    std::vector<int> seen(points.size(), 0);
    std::vector<double> streamed(points.size(), 0.0);
    SubmitOptions submit;
    submit.onComplete = [&](std::size_t index, double value) {
        seen[index]++;
        streamed[index] = value;
    };
    auto pts = points;
    BatchHandle handle = pool.submit(cost, std::move(pts), submit);
    const std::vector<double> got = handle.get();
    expectBitIdentical(got, want);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(seen[i], 1) << "point " << i;
        EXPECT_EQ(streamed[i], want[i]) << "point " << i;
    }
    const BatchStats stats = handle.stats();
    EXPECT_EQ(stats.pointsCompleted, points.size());
    EXPECT_EQ(stats.pointsRemote, points.size());
}

TEST(DistPoolTest, KilledWorkerMidBatchRequeuesBitIdentical)
{
    // 12q p=2 keeps ~24 shards in flight long enough to land a
    // SIGKILL while the batch is genuinely mid-execution.
    const Graph graph = distGraph(12);
    StatevectorCost reference = makeCost(graph, 2);
    const auto points = randomPoints(96, reference.numParams(), 31);
    const std::vector<double> want = reference.evaluateBatch(points);

    dist::DistOptions options;
    options.numWorkers = 2;
    options.shardSize = 4;
    dist::ProcessPool pool(options);
    StatevectorCost cost = makeCost(graph, 2);

    auto pts = points;
    BatchHandle handle = pool.submit(cost, std::move(pts));
    const std::vector<int> pids = pool.workerPids();
    ASSERT_EQ(pids.size(), 2u);

    // Kill one worker as soon as the first shard lands.
    for (int i = 0; i < 20000; ++i) {
        if (handle.stats().pointsCompleted >= 4)
            break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_GE(handle.stats().pointsCompleted, 4u);
    ASSERT_FALSE(handle.done());
    ::kill(pids[0], SIGKILL);

    const std::vector<double> got = handle.get();
    expectBitIdentical(got, want);
    const BatchStats stats = handle.stats();
    EXPECT_EQ(stats.pointsCompleted, points.size());
    EXPECT_GE(stats.shardsRequeued, 1u);
    EXPECT_GE(pool.stats().workersLost, 1u);
    EXPECT_GE(pool.stats().tasksRequeued, 1u);
    EXPECT_EQ(cost.numQueries(), points.size());
    EXPECT_EQ(pool.workerPids().size(), 1u); // one survivor
}

TEST(DistPoolTest, HungWorkerHitsHeartbeatTimeoutAndRequeues)
{
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(32, reference.numParams(), 41);
    const std::vector<double> want = reference.evaluateBatch(points);

    dist::DistOptions options;
    options.numWorkers = 2;
    options.shardSize = 4;
    options.heartbeatIntervalMs = 50;
    options.heartbeatTimeoutMs = 400;
    dist::ProcessPool pool(options);
    const std::vector<int> pids = pool.workerPids();
    ASSERT_EQ(pids.size(), 2u);

    // Freeze one worker before submitting: it will accept a shard into
    // its socket buffer, never answer, stop heartbeating, and get
    // killed by the liveness scan. SIGKILL terminates stopped
    // processes, so no SIGCONT is needed.
    ::kill(pids[1], SIGSTOP);

    StatevectorCost cost = makeCost(graph, 1);
    auto pts = points;
    BatchHandle handle = pool.submit(cost, std::move(pts));
    const std::vector<double> got = handle.get();
    expectBitIdentical(got, want);
    EXPECT_GE(handle.stats().shardsRequeued, 1u);
    EXPECT_GE(pool.stats().workersLost, 1u);
}

TEST(DistPoolTest, WorkerSpecCacheEvictionSelfHeals)
{
    // The worker bounds its rebuilt-evaluator cache at 16 entries
    // (FIFO). Push 20 distinct specs through one worker, then
    // resubmit the first: the pool still believes the worker holds
    // it, the worker answers "unknown cost", and the shard must be
    // respecced and requeued transparently — correct values, no lost
    // workers, no failed batch.
    const Graph graph = distGraph(6);
    dist::DistOptions options;
    options.numWorkers = 1;
    dist::ProcessPool pool(options);

    const auto points = randomPoints(4, 2, 101);
    auto costAt = [&](int variant) {
        PauliSum ham = maxcutHamiltonian(graph);
        ham.add(1e-6 * variant, PauliString(6)); // distinct content
        return StatevectorCost(qaoaCircuit(graph, 1), std::move(ham));
    };

    StatevectorCost first = costAt(0);
    const std::vector<double> want = [&] {
        StatevectorCost reference = costAt(0);
        return reference.evaluateBatch(points);
    }();
    {
        auto pts = points;
        expectBitIdentical(pool.submit(first, std::move(pts)).get(),
                           want);
    }
    for (int variant = 1; variant < 20; ++variant) {
        StatevectorCost cost = costAt(variant);
        auto pts = points;
        (void)pool.submit(cost, std::move(pts)).get();
    }

    // By now the worker evicted variant 0; the pool's per-worker
    // loaded set still lists it.
    auto pts = points;
    expectBitIdentical(pool.submit(first, std::move(pts)).get(), want);
    EXPECT_GE(pool.stats().tasksRequeued, 1u);
    EXPECT_EQ(pool.stats().workersLost, 0u);
}

TEST(DistPoolTest, CancelSkipsQueuedShardsAndRefundsQueries)
{
    const Graph graph = distGraph(12);
    StatevectorCost cost = makeCost(graph, 2);
    const auto points = randomPoints(60, cost.numParams(), 51);

    dist::DistOptions options;
    options.numWorkers = 1;
    options.shardSize = 2;
    dist::ProcessPool pool(options);

    auto pts = points;
    BatchHandle handle = pool.submit(cost, std::move(pts));
    for (int i = 0; i < 20000; ++i) {
        if (handle.stats().pointsCompleted >= 2)
            break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_FALSE(handle.done());
    EXPECT_TRUE(handle.cancel());
    EXPECT_THROW(handle.get(), std::runtime_error);

    const BatchStats stats = handle.stats();
    EXPECT_GT(stats.pointsCancelled, 0u);
    EXPECT_EQ(stats.pointsCompleted + stats.pointsCancelled,
              points.size());
    // Refunds leave exactly the executed points charged.
    EXPECT_EQ(cost.numQueries(), stats.pointsCompleted);
}

TEST(DistPoolTest, PoolDestructionWithOutstandingHandleDoesNotHang)
{
    const Graph graph = distGraph(12);
    StatevectorCost cost = makeCost(graph, 2);
    auto points = randomPoints(40, cost.numParams(), 61);

    BatchHandle handle;
    {
        dist::DistOptions options;
        options.numWorkers = 1;
        options.shardSize = 2;
        dist::ProcessPool pool(options);
        handle = pool.submit(cost, std::move(points));
    }
    // Queued shards were cancelled, in-flight ones drained; the handle
    // must resolve either way.
    try {
        handle.get();
    } catch (const std::runtime_error&) {
        EXPECT_GT(handle.stats().pointsCancelled, 0u);
    }
    EXPECT_TRUE(handle.done());
}

TEST(DistEngineTest, EngineRoutesDistributableBatchesToWorkers)
{
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(40, reference.numParams(), 71);
    const std::vector<double> want = reference.evaluateBatch(points);

    EngineOptions options;
    options.numThreads = 2;
    options.dist.numWorkers = 2;
    options.dist.minPointsToDistribute = 1;
    ExecutionEngine engine(options);

    StatevectorCost cost = makeCost(graph, 1);
    BatchHandle handle = engine.submit(cost, points);
    const std::vector<double> got = handle.get();
    expectBitIdentical(got, want);
    EXPECT_EQ(handle.stats().pointsRemote, points.size());
    ASSERT_NE(engine.processPool(), nullptr);
    EXPECT_TRUE(engine.processPool()->healthy());

    // Non-distributable costs stay on the thread pool.
    LambdaCost lambda(
        reference.numParams(),
        [](const std::vector<double>& p) { return p[0] - p[1]; },
        /*thread_safe=*/true);
    BatchHandle local = engine.submit(lambda, points);
    local.wait();
    EXPECT_EQ(local.stats().pointsRemote, 0u);
}

TEST(DistEngineTest, SmallBatchesStayInProcess)
{
    const Graph graph = distGraph(8);
    EngineOptions options;
    options.numThreads = 1;
    options.dist.numWorkers = 2;
    options.dist.minPointsToDistribute = 32;
    ExecutionEngine engine(options);

    StatevectorCost cost = makeCost(graph, 1);
    const auto points = randomPoints(8, cost.numParams(), 81);
    BatchHandle handle = engine.submit(cost, points);
    handle.wait();
    EXPECT_EQ(handle.stats().pointsRemote, 0u);
    // Below the threshold no pool is ever spawned.
    EXPECT_EQ(engine.processPool(), nullptr);
}

TEST(DistEngineTest, BrokenWorkerSetupFallsBackInProcess)
{
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(24, reference.numParams(), 91);
    const std::vector<double> want = reference.evaluateBatch(points);

    // A missing executable fails before anything is spawned; one that
    // exits before its Hello (/bin/false) fails the membership wait.
    for (const char* path : {"/no/such/oscar-worker", "/bin/false"}) {
        EngineOptions options;
        options.numThreads = 2;
        options.dist.numWorkers = 2;
        options.dist.minPointsToDistribute = 1;
        options.dist.workerPath = path;
        ExecutionEngine engine(options);

        StatevectorCost cost = makeCost(graph, 1);
        BatchHandle handle = engine.submit(cost, points);
        const std::vector<double> got = handle.get();
        expectBitIdentical(got, want);
        EXPECT_EQ(handle.stats().pointsRemote, 0u) << path;
        EXPECT_EQ(cost.numQueries(), points.size()) << path;
        EXPECT_EQ(engine.processPool(), nullptr) << path;
    }
}

TEST(DistEngineTest, MalformedDistWorkersEnvThrows)
{
    // OSCAR_DIST_WORKERS follows the OSCAR_KERNEL_ISA convention: a
    // typo'd override fails loudly instead of silently running
    // without the distribution the user asked for.
    const char* saved = std::getenv("OSCAR_DIST_WORKERS");
    const std::string restore = saved ? saved : "";
    ::setenv("OSCAR_DIST_WORKERS", "four", 1);
    EXPECT_THROW(ExecutionEngine engine{EngineOptions{}},
                 std::runtime_error);
    // An explicit per-engine setting never consults the environment.
    EngineOptions pinned;
    pinned.numThreads = 1;
    pinned.dist.numWorkers = -1;
    EXPECT_NO_THROW(ExecutionEngine engine(pinned));
    if (saved)
        ::setenv("OSCAR_DIST_WORKERS", restore.c_str(), 1);
    else
        ::unsetenv("OSCAR_DIST_WORKERS");
}

TEST(DistPoolTest, HybridProcessThreadGridBitIdentical)
{
    // The hybrid determinism contract: for a fixed ISA the values are
    // bit-identical to in-process evaluation at EVERY point of the
    // process x thread grid -- worker threading changes capacity and
    // shard routing, never arithmetic.
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(48, reference.numParams(), 13);
    const std::vector<double> want = reference.evaluateBatch(points);

    const std::pair<int, int> grid[] = {{1, 4}, {2, 2}, {4, 1}};
    for (const auto& [workers, threads] : grid) {
        dist::DistOptions options;
        options.numWorkers = workers;
        options.threadsPerWorker = threads;
        options.shardSize = 5;
        dist::ProcessPool pool(options);
        StatevectorCost cost = makeCost(graph, 1);
        auto pts = points;
        const std::vector<double> got =
            pool.submit(cost, std::move(pts)).get();
        expectBitIdentical(got, want);
        EXPECT_EQ(cost.numQueries(), points.size())
            << workers << "x" << threads;
    }
}

TEST(DistPoolTest, PipelinedDispatchAndRemoteKernelStats)
{
    // Depth-2 pipelining: with many more shards than workers, later
    // shards must be sent while earlier ones are still evaluating.
    // The Result frames' kernel-counter deltas (including the
    // worker-side prefix-cache traffic) aggregate into the batch's
    // remoteKernel.
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(32, reference.numParams(), 17);
    const std::vector<double> want = reference.evaluateBatch(points);

    dist::DistOptions options;
    options.numWorkers = 1;
    options.threadsPerWorker = 2;
    options.shardSize = 2;
    dist::ProcessPool pool(options);
    StatevectorCost cost = makeCost(graph, 1);
    auto pts = points;
    BatchHandle handle = pool.submit(cost, std::move(pts));
    expectBitIdentical(handle.get(), want);

    const BatchStats stats = handle.stats();
    EXPECT_GT(stats.shardsPipelined, 0u);
    EXPECT_EQ(stats.pointsRemote, points.size());
    // Everything ran remotely, so the remote-only kernel aggregate
    // matches the full one, and the workers' prefix caches saw
    // traffic.
    EXPECT_GT(stats.remoteKernel.cacheLookups, 0u);
    EXPECT_EQ(stats.remoteKernel.cacheLookups, stats.kernel.cacheLookups);
    EXPECT_EQ(stats.remoteKernel.cacheHits, stats.kernel.cacheHits);
}

TEST(DistEngineTest, MalformedDistThreadsEnvThrows)
{
    // OSCAR_DIST_THREADS follows the OSCAR_DIST_WORKERS convention:
    // resolved eagerly at engine construction, failing loudly on a
    // typo instead of silently running single-threaded workers.
    const char* saved = std::getenv("OSCAR_DIST_THREADS");
    const std::string restore = saved ? saved : "";
    ::setenv("OSCAR_DIST_THREADS", "fast", 1);
    {
        EngineOptions plain;
        plain.numThreads = 1;
        plain.dist.numWorkers = -1;
        EXPECT_THROW(ExecutionEngine engine{plain}, std::runtime_error);
    }
    ::setenv("OSCAR_DIST_THREADS", "300", 1); // above the 0..256 range
    {
        EngineOptions plain;
        plain.numThreads = 1;
        plain.dist.numWorkers = -1;
        EXPECT_THROW(ExecutionEngine engine{plain}, std::runtime_error);
    }
    // An explicit per-engine thread count never consults the
    // environment.
    EngineOptions pinned;
    pinned.numThreads = 1;
    pinned.dist.numWorkers = -1;
    pinned.dist.threadsPerWorker = 2;
    EXPECT_NO_THROW(ExecutionEngine engine(pinned));
    if (saved)
        ::setenv("OSCAR_DIST_THREADS", restore.c_str(), 1);
    else
        ::unsetenv("OSCAR_DIST_THREADS");
}

TEST(DistEngineTest, OscarReconstructDistributedMatchesInProcess)
{
    const Graph graph = distGraph(8);
    const GridSpec grid = GridSpec::qaoaP1(20, 20);

    OscarOptions plain;
    plain.samplingFraction = 0.25;
    plain.numThreads = 2;

    OscarOptions distributed = plain;
    distributed.distributed.numWorkers = 2;
    distributed.distributed.minPointsToDistribute = 1;

    StatevectorCost cost_a = makeCost(graph, 1);
    const OscarResult a = Oscar::reconstruct(grid, cost_a, plain);

    StatevectorCost cost_b = makeCost(graph, 1);
    const OscarResult b = Oscar::reconstruct(grid, cost_b, distributed);

    expectBitIdentical(b.samples.values, a.samples.values);
    ASSERT_EQ(a.samples.indices, b.samples.indices);
    EXPECT_GT(b.execution.pointsRemote, 0u);
    EXPECT_EQ(b.execution.pointsRemote, b.execution.pointsCompleted);
    // Identical samples reconstruct identically.
    for (std::size_t i = 0; i < a.reconstructed.numPoints(); ++i)
        EXPECT_EQ(a.reconstructed.value(i), b.reconstructed.value(i));
}

// ------------------------------------------------ elastic TCP fleets

/** Set (or clear, with nullptr) an env var for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        const char* old = std::getenv(name);
        had_ = old != nullptr;
        saved_ = had_ ? old : "";
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), saved_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string saved_;
    bool had_ = false;
};

/**
 * fork/exec an `oscar-worker --connect 127.0.0.1:port` joiner, the way
 * an operator would start one on another machine. The fleet secret
 * travels in the child environment (never argv); slow_us throttles the
 * worker via the OSCAR_WORKER_SLOW_US test hook to fake a straggler.
 * Returns the child pid (the caller reaps it).
 */
int
spawnRemoteWorker(std::uint16_t port, const std::string& secret,
                  long slow_us = 0)
{
    const std::string worker = dist::ProcessPool::resolveWorkerPath("");
    const std::string connect = "127.0.0.1:" + std::to_string(port);

    std::vector<std::string> env_store;
    for (char** e = environ; e && *e; ++e) {
        const std::string entry(*e);
        if (entry.rfind("OSCAR_DIST_SECRET=", 0) == 0 ||
            entry.rfind("OSCAR_DIST_CONNECT=", 0) == 0 ||
            entry.rfind("OSCAR_WORKER_SLOW_US=", 0) == 0)
            continue;
        env_store.push_back(entry);
    }
    if (!secret.empty())
        env_store.push_back("OSCAR_DIST_SECRET=" + secret);
    if (slow_us > 0)
        env_store.push_back("OSCAR_WORKER_SLOW_US=" +
                            std::to_string(slow_us));

    std::vector<std::string> arg_store = {"oscar-worker", "--connect",
                                          connect, "--heartbeat-ms",
                                          "50", "--threads", "1"};
    std::vector<char*> argv;
    std::vector<char*> envp;
    for (std::string& s : arg_store)
        argv.push_back(s.data());
    argv.push_back(nullptr);
    for (std::string& s : env_store)
        envp.push_back(s.data());
    envp.push_back(nullptr);

    const int pid = ::fork();
    if (pid == 0) {
        ::execve(worker.c_str(), argv.data(), envp.data());
        ::_exit(127);
    }
    return pid;
}

/** Reap a test-spawned worker once it exits (pool gone / SIGKILLed). */
void
reapWorker(int pid)
{
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
}

bool
waitUntil(const std::function<bool()>& done, int timeout_ms = 10000)
{
    for (int i = 0; i < timeout_ms * 5; ++i) {
        if (done())
            return true;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return done();
}

/** Reap a worker the pool should drop; kill it and return false if it
 *  is still running after the timeout (it became a member). */
bool
exitsWithin(int pid, int timeout_ms = 10000)
{
    if (waitUntil(
            [pid] { return ::waitpid(pid, nullptr, WNOHANG) == pid; },
            timeout_ms))
        return true;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return false;
}

TEST(DistFleetTest, TcpLoopbackPoolBitIdenticalWithCompressedFraming)
{
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(48, reference.numParams(), 19);
    const std::vector<double> want = reference.evaluateBatch(points);

    dist::DistOptions options;
    options.numWorkers = 2;
    options.listen = "127.0.0.1:0";
    options.secret = "tcp-test-secret";
    options.shardSize = 5;
    dist::ProcessPool pool(options);
    EXPECT_NE(pool.listenPort(), 0);
    EXPECT_TRUE(pool.healthy());
    // Locals are pid-bound to their connections, so fault
    // injection via workerPids keeps working on this transport.
    EXPECT_EQ(pool.workerPids().size(), 2u);
    EXPECT_EQ(pool.stats().workersJoined, 2u);

    StatevectorCost cost = makeCost(graph, 1);
    auto pts = points;
    BatchHandle handle = pool.submit(cost, std::move(pts));
    expectBitIdentical(handle.get(), want);
    EXPECT_EQ(cost.numQueries(), points.size());

    const BatchStats stats = handle.stats();
    EXPECT_EQ(stats.pointsRemote, points.size());
    // Fleet-membership counters surface per batch too (satellite of
    // the observability subsystem): both members were joined while
    // this batch ran, and neither dispatch target was remote.
    EXPECT_EQ(stats.workersJoined, 2u);
    EXPECT_EQ(stats.tasksToRemote, 0u);
    // Compressed framing: the wire carried measurably fewer bytes
    // than the raw frames (cost specs are full of zero byte-planes).
    EXPECT_GT(stats.bytesOnWireRaw, 0u);
    EXPECT_GT(stats.bytesOnWireCompressed, 0u);
    EXPECT_LT(stats.bytesOnWireCompressed, stats.bytesOnWireRaw);
    // Pool-spawned locals never count as remote dispatch targets.
    EXPECT_EQ(pool.stats().tasksToRemote, 0u);
}

TEST(DistFleetTest, WorkerJoinsMidBatchAndReceivesQueuedWork)
{
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(48, reference.numParams(), 23);
    const std::vector<double> want = reference.evaluateBatch(points);

    int pid = -1;
    {
        // An elastic coordinator with zero members: batches queue
        // until someone joins.
        dist::DistOptions options;
        options.numWorkers = 0;
        options.listen = "127.0.0.1:0";
        options.secret = "join-test-secret";
        options.shardSize = 6;
        dist::ProcessPool pool(options);
        EXPECT_TRUE(pool.healthy());
        EXPECT_EQ(pool.workerPids().size(), 0u);

        StatevectorCost cost = makeCost(graph, 1);
        auto pts = points;
        BatchHandle handle = pool.submit(cost, std::move(pts));
        EXPECT_FALSE(handle.done());

        pid = spawnRemoteWorker(pool.listenPort(), "join-test-secret");
        ASSERT_GT(pid, 0);
        expectBitIdentical(handle.get(), want);
        EXPECT_EQ(cost.numQueries(), points.size());
        EXPECT_EQ(pool.stats().workersJoined, 1u);
        EXPECT_GE(pool.stats().tasksToRemote, 1u);
        EXPECT_EQ(handle.stats().pointsRemote, points.size());
        EXPECT_EQ(handle.stats().workersJoined, 1u);
        EXPECT_GE(handle.stats().tasksToRemote, 1u);
    }
    // Pool shutdown tells the joiner to exit; it leaves cleanly.
    reapWorker(pid);
}

TEST(DistFleetTest, SigkilledRemoteMemberRequeuesOntoSurvivors)
{
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(48, reference.numParams(), 29);
    const std::vector<double> want = reference.evaluateBatch(points);

    dist::DistOptions options;
    options.numWorkers = 1;
    options.listen = "127.0.0.1:0";
    options.secret = "kill-test-secret";
    options.shardSize = 4;
    dist::ProcessPool pool(options);

    // A deliberately slow joiner: it holds its in-flight shard long
    // enough to be killed mid-evaluation.
    const int pid = spawnRemoteWorker(pool.listenPort(),
                                      "kill-test-secret",
                                      /*slow_us=*/20000);
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(waitUntil(
        [&] { return pool.stats().workersJoined >= 2; }));

    StatevectorCost cost = makeCost(graph, 1);
    auto pts = points;
    BatchHandle handle = pool.submit(cost, std::move(pts));
    ASSERT_TRUE(waitUntil(
        [&] { return pool.stats().tasksToRemote >= 1; }));
    ::kill(pid, SIGKILL);
    reapWorker(pid);

    expectBitIdentical(handle.get(), want);
    EXPECT_EQ(cost.numQueries(), points.size());
    EXPECT_GE(handle.stats().shardsRequeued, 1u);
    EXPECT_GE(pool.stats().workersLost, 1u);
}

TEST(DistFleetTest, StolenStragglerTailIsBitIdentical)
{
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(48, reference.numParams(), 37);
    const std::vector<double> want = reference.evaluateBatch(points);

    int pid = -1;
    {
        dist::DistOptions options;
        options.numWorkers = 1; // the fast member
        options.listen = "127.0.0.1:0";
        options.secret = "steal-test-secret";
        options.shardSize = 24; // two big shards, one per member
        dist::ProcessPool pool(options);

        // ~20ms per point: whichever member draws the straggler pins
        // its shard for ~half a second while the other idles.
        pid = spawnRemoteWorker(pool.listenPort(), "steal-test-secret",
                                /*slow_us=*/20000);
        ASSERT_GT(pid, 0);
        ASSERT_TRUE(waitUntil(
            [&] { return pool.stats().workersJoined >= 2; }));

        StatevectorCost cost = makeCost(graph, 1);
        auto pts = points;
        BatchHandle handle = pool.submit(cost, std::move(pts));
        expectBitIdentical(handle.get(), want);
        EXPECT_EQ(cost.numQueries(), points.size());
        // The idle member stole the straggler's unrun tail, and the
        // relocation changed no values (ordinals were reserved at
        // submission).
        EXPECT_GE(handle.stats().shardsStolen, 1u);
        EXPECT_GE(pool.stats().tasksStolen, 1u);
    }
    reapWorker(pid);
}

TEST(DistFleetTest, WrongSecretJoinerIsRejectedBeforeReceivingWork)
{
    const Graph graph = distGraph(8);
    StatevectorCost reference = makeCost(graph, 1);
    const auto points = randomPoints(24, reference.numParams(), 43);
    const std::vector<double> want = reference.evaluateBatch(points);

    // A configured listener and secret, and a default pool: with
    // neither configured it binds loopback and mints its own secret,
    // so a local process without that secret cannot join either.
    dist::DistOptions configured;
    configured.numWorkers = 1;
    configured.listen = "127.0.0.1:0";
    configured.secret = "right-secret";
    configured.shardSize = 4;
    dist::DistOptions minted = configured;
    minted.listen.clear();
    minted.secret.clear();
    ScopedEnv no_listen("OSCAR_DIST_LISTEN", nullptr);
    ScopedEnv no_secret("OSCAR_DIST_SECRET", nullptr);
    const std::pair<dist::DistOptions, std::vector<std::string>> cases[] =
        {{configured, {"wrong-secret"}}, {minted, {"", "wrong-secret"}}};

    for (const auto& [options, impostors] : cases) {
        dist::ProcessPool pool(options);
        ASSERT_NE(pool.listenPort(), 0);
        ASSERT_TRUE(waitUntil(
            [&] { return pool.stats().workersJoined >= 1; }));

        for (const std::string& secret : impostors) {
            const int pid = spawnRemoteWorker(pool.listenPort(), secret);
            ASSERT_GT(pid, 0);
            // The impostor's tagged Hello fails verification and the
            // connection is dropped; it never becomes a member.
            EXPECT_TRUE(exitsWithin(pid))
                << "impostor secret \"" << secret << "\"";
            EXPECT_EQ(pool.stats().workersJoined, 1u)
                << "impostor secret \"" << secret << "\"";
        }

        // The fleet keeps working on its authenticated member.
        StatevectorCost cost = makeCost(graph, 1);
        auto pts = points;
        expectBitIdentical(pool.submit(cost, std::move(pts)).get(),
                           want);
        EXPECT_EQ(pool.stats().workersJoined, 1u);
        EXPECT_EQ(pool.stats().tasksToRemote, 0u);
    }
}

TEST(DistOptionsTest, ListenConnectSecretResolverMatrix)
{
    // Explicit configuration wins without consulting the environment.
    {
        ScopedEnv env("OSCAR_DIST_LISTEN", "not-an-address");
        EXPECT_EQ(dist::resolveDistListen("127.0.0.1:0"),
                  "127.0.0.1:0");
        EXPECT_THROW(dist::resolveDistListen(""), std::runtime_error);
    }
    // The environment is consulted only on the empty sentinel.
    {
        ScopedEnv env("OSCAR_DIST_LISTEN", "0.0.0.0:7777");
        EXPECT_EQ(dist::resolveDistListen(""), "0.0.0.0:7777");
    }
    {
        ScopedEnv env("OSCAR_DIST_LISTEN", nullptr);
        EXPECT_EQ(dist::resolveDistListen(""), "");
    }
    // Malformed listen specs fail loudly, whatever the source.
    EXPECT_THROW(dist::resolveDistListen("nohost"), std::runtime_error);
    EXPECT_THROW(dist::resolveDistListen("host:"), std::runtime_error);
    EXPECT_THROW(dist::resolveDistListen(":1234"), std::runtime_error);
    EXPECT_THROW(dist::resolveDistListen("host:99999"),
                 std::runtime_error);
    EXPECT_THROW(dist::resolveDistListen("host:12x"),
                 std::runtime_error);
    EXPECT_THROW(dist::resolveDistListen("none"), std::runtime_error);

    // Connect accepts real ports only (a worker cannot dial port 0).
    EXPECT_EQ(dist::resolveDistConnect("127.0.0.1:80"), "127.0.0.1:80");
    EXPECT_THROW(dist::resolveDistConnect("127.0.0.1:0"),
                 std::runtime_error);
    {
        ScopedEnv env("OSCAR_DIST_CONNECT", "10.0.0.1:4242");
        EXPECT_EQ(dist::resolveDistConnect(""), "10.0.0.1:4242");
    }
    {
        ScopedEnv env("OSCAR_DIST_CONNECT", "10.0.0.1:0");
        EXPECT_THROW(dist::resolveDistConnect(""), std::runtime_error);
    }
    {
        ScopedEnv env("OSCAR_DIST_CONNECT", nullptr);
        EXPECT_EQ(dist::resolveDistConnect(""), "");
    }

    // Secrets: explicit wins; a set-but-empty or over-long secret is
    // a misconfiguration, not a choice.
    {
        ScopedEnv env("OSCAR_DIST_SECRET", "from-env");
        EXPECT_EQ(dist::resolveDistSecret("explicit"), "explicit");
        EXPECT_EQ(dist::resolveDistSecret(""), "from-env");
    }
    {
        ScopedEnv env("OSCAR_DIST_SECRET", "");
        EXPECT_THROW(dist::resolveDistSecret(""), std::runtime_error);
    }
    {
        ScopedEnv env("OSCAR_DIST_SECRET", nullptr);
        EXPECT_EQ(dist::resolveDistSecret(""), "");
        EXPECT_THROW(dist::resolveDistSecret(std::string(300, 'x')),
                     std::runtime_error);
    }
}

} // namespace
} // namespace oscar
