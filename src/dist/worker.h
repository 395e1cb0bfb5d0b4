/**
 * @file
 * The oscar-worker process loop.
 *
 * A worker is the child half of the distributed execution subsystem:
 * it connects to the pool over TCP (`--connect host:port`), reads
 * LoadCost / Task frames, rebuilds cost evaluators from their wire specs, evaluates parameter-point
 * shards at their reserved ordinals, and writes Result frames back. A
 * detached heartbeat thread keeps liveness flowing even while a long
 * shard is evaluating, so the pool can tell "busy" from "hung".
 *
 * Shards are evaluated in small sub-batches with a socket poll
 * between them, so a coordinator StealRequest is answered promptly:
 * the worker grants its unrun tail (StealGrant carrying how many
 * points it keeps), sends the Result for the points it already
 * evaluated, and the coordinator re-dispatches the tail elsewhere.
 * Ordinals were reserved at submission, so a stolen tail evaluates
 * bit-identically wherever it lands.
 *
 * The pool challenges every connection with a nonce frame before
 * accepting work from it; the worker answers inside its Hello with an
 * HMAC-style tag over the nonce keyed by the shared fleet secret
 * (OSCAR_DIST_SECRET).
 *
 * The loop exits on a Shutdown frame or EOF (the pool died); a wire
 * error is fatal by design -- the pool tears the connection down and
 * requeues, it never resynchronizes a corrupt stream.
 */

#ifndef OSCAR_DIST_WORKER_H
#define OSCAR_DIST_WORKER_H

#include <string>

namespace oscar {
namespace dist {

/**
 * Run the worker protocol on the connected socket `fd` until
 * shutdown/EOF, heartbeating every `heartbeat_ms`. `threads` sizes
 * the worker's own ExecutionEngine pool for shard evaluation (hybrid
 * process x thread execution): 0 = this host's hardware concurrency,
 * >= 1 = exactly that many. The resolved count is advertised back to
 * the pool in the Hello frame as the worker's capacity. The worker
 * first blocks for the pool's Challenge frame and tags its Hello with
 * helloAuthTag(secret, nonce, hello). Returns the process exit code
 * (0 on a clean shutdown, nonzero on a protocol error).
 */
int workerMain(int fd, int heartbeat_ms, int threads,
               const std::string& secret);

/**
 * Entry point of the `oscar-worker` binary: parses
 * `--connect host:port [--heartbeat-ms M] [--threads T]` and runs
 * workerMain. Without --connect the
 * OSCAR_DIST_CONNECT environment variable is consulted
 * (resolveDistConnect); the fleet secret always comes from
 * OSCAR_DIST_SECRET, never argv (ps would leak it). A TCP connect is
 * retried for a few seconds, so a worker may be started slightly
 * before its coordinator.
 */
int workerEntry(int argc, char** argv);

} // namespace dist
} // namespace oscar

#endif // OSCAR_DIST_WORKER_H
