/**
 * @file
 * Configuration of the distributed execution subsystem.
 *
 * Kept free of other project includes so the backend layer
 * (backend/engine.h) and the core pipelines (core/oscar.h) can embed
 * these options by value without depending on the process pool itself.
 */

#ifndef OSCAR_DIST_OPTIONS_H
#define OSCAR_DIST_OPTIONS_H

#include <cstddef>
#include <string>

namespace oscar {
namespace dist {

/**
 * Multi-process landscape sharding configuration.
 *
 * With numWorkers > 0 the ExecutionEngine forks worker processes (the
 * `oscar-worker` entry point of the same build) and routes large
 * batches of distributable cost functions to them as parameter-point
 * shards over a fault-tolerant task queue. Ordinals are reserved at
 * submission, so results are bit-identical to in-process execution
 * (for a fixed kernel ISA) regardless of worker count, completion
 * order, or crash-triggered requeues.
 */
struct DistOptions
{
    /**
     * Worker processes. 0 = disabled unless the OSCAR_DIST_WORKERS
     * environment variable names a count; negative = force-disabled
     * (ignore the environment too).
     */
    int numWorkers = 0;

    /**
     * Evaluation threads inside each worker process (the worker's own
     * ExecutionEngine pool; hybrid process x thread execution).
     * -1 = consult the OSCAR_DIST_THREADS environment variable, and
     * when that is unset too, run single-threaded workers (the
     * pre-hybrid default). 0 = the worker host's hardware concurrency,
     * resolved worker-side and advertised back in its Hello frame.
     * >= 1 = exactly that many threads. Thread count never changes
     * values (the engine's determinism contract); it changes how much
     * capacity the worker advertises and how the coordinator sizes
     * shards.
     */
    int threadsPerWorker = -1;

    /**
     * Points per task shard. 0 = auto: roughly four shards per unit of
     * advertised capacity per batch (a single-threaded worker counts
     * 1, a T-thread worker T), so a crashed worker forfeits at most a
     * small slice of the batch and stragglers rebalance, while shards
     * stay long enough to keep each worker's prefix cache hot and wide
     * enough to feed its thread pool. Purely a performance knob:
     * sharding never changes values.
     */
    std::size_t shardSize = 0;

    /**
     * Batches smaller than this run in-process (threaded): a process
     * round-trip costs more than it saves on tiny batches.
     */
    std::size_t minPointsToDistribute = 16;

    /** Worker heartbeat period, milliseconds. */
    int heartbeatIntervalMs = 100;

    /**
     * A worker silent for this long (no heartbeat, result, or hello)
     * is declared dead: it is killed, and its in-flight shard is
     * requeued onto the surviving workers. Crashes are additionally
     * detected immediately via socket EOF; the timeout catches hung
     * (not crashed) workers.
     */
    int heartbeatTimeoutMs = 3000;

    /**
     * Worker executable. Empty = resolve automatically: the
     * OSCAR_WORKER_BIN environment variable, then the build
     * directory's `oscar-worker`, then an `oscar-worker` next to the
     * current executable.
     */
    std::string workerPath;

    /**
     * TCP listen address, "host:port" (port 0 = kernel-assigned,
     * readable back via ProcessPool::listenPort()). Every worker,
     * local or remote, joins the pool over TCP. Non-empty turns the
     * pool into an elastic fleet coordinator: remote
     * `oscar-worker --connect host:port` processes may join or leave
     * at any time -- mid-batch included -- and numWorkers may be 0, a
     * coordinator that serves only remote joiners. Empty = consult
     * the OSCAR_DIST_LISTEN environment variable (resolveDistListen);
     * when that is unset too, the pool binds 127.0.0.1:0 for its own
     * workers only.
     */
    std::string listen;

    /**
     * Shared fleet secret for the authenticated Hello handshake on
     * every accept (an HMAC-style challenge tag; see
     * dist::helloAuthTag). Empty = consult OSCAR_DIST_SECRET
     * (resolveDistSecret). When that is unset too, a pool without a
     * configured listener mints a random per-pool secret (only its
     * own workers can join), and one with a configured listener runs
     * unauthenticated (the challenge is still issued, with an
     * empty-secret key). Every member must agree on the secret.
     */
    std::string secret;

    /**
     * Per-point work stealing: when the queue drains and a worker
     * goes idle, the coordinator asks the worker holding the largest
     * in-flight shard to yield its unrun tail (StealRequest /
     * StealGrant) and re-dispatches that tail to the idle worker.
     * Ordinals are reserved at submission, so stealing never changes
     * values; it only shortens the straggler tail. On by default;
     * off is mainly for benchmarking the unstolen baseline.
     */
    bool steal = true;
};

/**
 * Resolve DistOptions::threadsPerWorker: a non-negative value is
 * returned as-is; -1 consults the OSCAR_DIST_THREADS environment
 * variable (unset = 1, the pre-hybrid single-threaded worker). Like
 * OSCAR_DIST_WORKERS, a malformed or out-of-range value (valid range
 * 0..256, 0 = worker-host hardware concurrency) throws
 * std::runtime_error instead of silently running without the
 * parallelism the user asked for. Defined in process_pool.cpp.
 */
int resolveThreadsPerWorker(int configured);

/**
 * Resolve DistOptions::listen: a non-empty configured value wins
 * (validated); empty consults OSCAR_DIST_LISTEN (unset = "", no
 * configured listener: the pool binds 127.0.0.1:0 for its own
 * workers). A value must be "host:port" with a numeric port 0..65535
 * (0 = kernel-assigned); malformed input throws std::runtime_error
 * naming the valid form. Defined in process_pool.cpp.
 */
std::string resolveDistListen(const std::string& configured);

/**
 * Resolve a worker's connect address: a non-empty configured value
 * wins (validated); empty consults OSCAR_DIST_CONNECT (unset = "").
 * Must be "host:port" with a numeric port 1..65535 (a worker cannot
 * connect to port 0); malformed input throws std::runtime_error
 * naming the valid form. Defined in process_pool.cpp.
 */
std::string resolveDistConnect(const std::string& configured);

/**
 * Resolve DistOptions::secret: a non-empty configured value wins;
 * empty consults OSCAR_DIST_SECRET (unset = "", no configured
 * secret; see DistOptions::secret). A set-but-empty or over-long (> 256 bytes) secret throws
 * std::runtime_error naming the valid form -- an empty exported
 * secret is a misconfiguration, not a choice. Defined in
 * process_pool.cpp.
 */
std::string resolveDistSecret(const std::string& configured);

} // namespace dist
} // namespace oscar

#endif // OSCAR_DIST_OPTIONS_H
