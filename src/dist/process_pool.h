/**
 * @file
 * Multi-process landscape sharding behind a fault-tolerant task queue.
 *
 * The ProcessPool forks worker processes -- the `oscar-worker` entry
 * point of this same build -- and implements the ExecutionEngine
 * submission surface: submit() returns a BatchHandle whose Control is
 * backed by remote execution. A submitted batch is cut into
 * contiguous parameter-point shards and placed on a shared FIFO task
 * queue; a monitor thread dispatches shards to idle workers, collects
 * result frames, and watches liveness.
 *
 * Transport: every member joins over TCP. The pool binds a listener
 * -- 127.0.0.1 on an ephemeral port by default, DistOptions::listen
 * when configured -- and its own workers dial back to it. Every
 * accept is challenged (a nonce frame); the worker's Hello must carry
 * the HMAC-style tag keyed by the fleet secret, or the connection is
 * dropped before it can receive work. A default pool mints a random
 * secret when none is configured, so only the workers it spawned can
 * join.
 *
 * Elastic fleets: with DistOptions::listen configured, any
 * `oscar-worker --connect host:port` process -- on this machine or
 * another -- may join at any time, mid-batch included. A joiner is
 * simply another dispatch target: queued shards flow to it on the
 * next dispatch pass. Departure is the existing death path below. An
 * elastic pool with zero members keeps batches queued until someone
 * joins rather than failing them.
 *
 * Fault tolerance: every worker heartbeats on a fixed period. A
 * worker that closes its socket (crash, SIGKILL) is detected
 * immediately; one that goes silent past the heartbeat timeout (hang,
 * SIGSTOP) is killed. Either way its in-flight shard goes back on the
 * queue -- head first, so recovery preempts new work -- and runs on a
 * surviving worker; BatchStats::shardsRequeued counts these. When no
 * workers survive, outstanding batches fail with an error rather than
 * hanging (unless the pool is elastic, where new members can still
 * arrive), and the engine falls back to in-process execution for
 * later submissions.
 *
 * Work stealing: when the queue drains and a member goes idle while
 * another still holds a large in-flight shard, the coordinator sends
 * a StealRequest; the busy worker grants its unrun tail between
 * evaluation sub-batches, and the tail is re-sharded onto the queue
 * for the idle worker (BatchStats::shardsStolen). Per-frame payload
 * compression (smallest-of {raw, PackBits, plane PackBits}, shared
 * with the landscape store's codec) keeps cost specs and f64 arrays
 * small on the wire; BatchStats::bytesOnWire{Raw,Compressed} report
 * the saving per batch.
 *
 * Determinism contract: queries and ordinals are reserved at
 * submission in the coordinating process (exactly like the thread
 * engine), each shard carries its ordinal base on the wire, and
 * workers of the same build evaluate with the same kernel ISA
 * (resolved concretely before the cost spec is serialized). Values
 * are therefore bit-identical to in-process execution for any worker
 * count, any completion order, and any number of crash-triggered
 * requeues.
 */

#ifndef OSCAR_DIST_PROCESS_POOL_H
#define OSCAR_DIST_PROCESS_POOL_H

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/backend/engine.h"
#include "src/dist/options.h"

namespace oscar {
namespace dist {

struct PoolCore;    // shared pool state (process_pool.cpp)
struct RemoteBatch; // remote-execution BatchHandle::Control (ditto)

/** Pool-lifetime counters (monotonic; safe to poll anytime). */
struct PoolStats
{
    std::size_t workersSpawned = 0;
    std::size_t workersLost = 0;
    /** Members that passed the authenticated Hello handshake. */
    std::size_t workersJoined = 0;
    std::size_t tasksDispatched = 0;
    std::size_t tasksRequeued = 0;
    /** Shard tails split off busy workers via StealRequest/Grant. */
    std::size_t tasksStolen = 0;
    /** Dispatches to members that were not spawned by this pool. */
    std::size_t tasksToRemote = 0;
};

/** Fork/exec worker-process pool with the engine submission surface. */
class ProcessPool
{
  public:
    /**
     * Spawns options.numWorkers workers (>= 1, or >= 0 with a
     * configured listener) and waits for their Hellos. Throws
     * std::runtime_error when the worker executable cannot be
     * resolved, the processes cannot be created, or none of the
     * spawned workers completes its Hello; the caller (the
     * ExecutionEngine) treats that as "distribution unavailable" and
     * stays in-process.
     */
    explicit ProcessPool(const DistOptions& options);

    /**
     * Cancels still-queued shards (refunding their queries), drains
     * in-flight shards, shuts the workers down, and reaps them.
     * Outstanding handles stay valid, exactly like engine handles.
     */
    ~ProcessPool();

    ProcessPool(const ProcessPool&) = delete;
    ProcessPool& operator=(const ProcessPool&) = delete;

    /** Workers spawned at construction. */
    int numWorkers() const;

    /**
     * True while at least one fully-handshaken worker is alive, or
     * the pool is elastic (a configured listener is healthy even
     * while momentarily empty).
     */
    bool healthy() const;

    /**
     * Pids of the currently-alive local workers (fault injection
     * hooks). Remote TCP members run in other processes -- possibly
     * on other hosts -- and are not listed.
     */
    std::vector<int> workerPids() const;

    /** The TCP listener's bound port (useful with a ":0" listen spec). */
    std::uint16_t listenPort() const;

    PoolStats stats() const;

    /**
     * Submit a batch for remote execution; same semantics as
     * ExecutionEngine::submit (ordinals/queries reserved here, in
     * submission order; result[i] corresponds to points[i];
     * onComplete streams per completed shard in submission order
     * within the shard). Throws -- before consuming `points` or
     * reserving anything -- if the cost is not distributable or the
     * pool has no live workers.
     */
    BatchHandle submit(CostFunction& cost,
                       std::vector<std::vector<double>>&& points,
                       SubmitOptions options = {});

    /**
     * Locate the worker executable: `override` if non-empty, else
     * $OSCAR_WORKER_BIN, else the build tree's oscar-worker, else an
     * oscar-worker beside /proc/self/exe. Throws when none exists.
     */
    static std::string resolveWorkerPath(const std::string& override_path);

  private:
    static void monitorLoop(const std::shared_ptr<PoolCore>& core);

    std::shared_ptr<PoolCore> core_;
    std::thread monitor_;
};

} // namespace dist
} // namespace oscar

#endif // OSCAR_DIST_PROCESS_POOL_H
