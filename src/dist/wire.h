/**
 * @file
 * Compact wire format of the distributed execution subsystem.
 *
 * Every message between the coordinating process and an oscar-worker
 * is one *frame*:
 *
 *   [magic u32 "OSCW"][version u16][type u16][raw length u64]
 *   [stored length u64][codec u8]
 *   [stored bytes][crc32 u32 of header + RAW payload]
 *
 * v5 layers per-frame compression under the framing: the encoder
 * picks the smallest of {raw, PackBits, byte-plane PackBits} (the
 * shared codec in src/common/packbits.h, the same one the landscape
 * store uses on disk) and records the choice in the codec byte. A
 * compressed frame's stored length is always strictly smaller than
 * its raw length; incompressible payloads ship raw, so framing never
 * expands beyond the fixed header. The CRC covers the header and the
 * RAW payload: corruption is detected after decode whichever codec
 * was used, a flipped header field (even one that still parses, like
 * a valid neighbouring frame type) fails the trailer check, and
 * decode itself is bounds-checked (a crafted stored stream that
 * overruns or undershoots the declared raw length is a WireError, not
 * an allocation).
 *
 * All integers are little-endian; doubles travel as their IEEE-754
 * bit pattern (the same build runs on both ends, so bitwise transport
 * is what keeps distributed values identical to in-process values).
 * A frame is rejected -- WireError -- on bad magic, unknown version,
 * type, or codec, an oversized or inconsistent length pair, a CRC
 * mismatch, malformed compressed bytes, or payload decode
 * overrun/trailing bytes; a truncated frame is simply "not complete
 * yet" and never yields a message.
 *
 * Payload schemas (task specs with circuit + Hamiltonian + kernel
 * options + reserved ordinals, result frames with values and kernel
 * stats) live here too, so the worker, the pool, and the tests share
 * one encoder/decoder pair per message.
 */

#ifndef OSCAR_DIST_WIRE_H
#define OSCAR_DIST_WIRE_H

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/backend/executor.h"
#include "src/hamiltonian/pauli_sum.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/quantum/circuit.h"

namespace oscar {
namespace dist {

/** Malformed wire data (framing, CRC, or payload decode). */
class WireError : public std::runtime_error
{
  public:
    explicit WireError(const std::string& what)
        : std::runtime_error("wire: " + what)
    {
    }
};

constexpr std::uint32_t kWireMagic = 0x4F534357u; // "OSCW"
// v2: KernelOptions carries fuseWindow, KernelStats carries the
// super-kernel/batched-Pauli counters, and the ISA byte admits avx512.
// v3: Hello advertises the worker's evaluation capacity (resolved
// thread count) so the coordinator can size and route shards
// proportionally to hybrid process x thread workers.
// v4: the serving frames (Request/Response/Progress, payload schemas
// in src/serve/protocol.h) join the protocol, carried over the same
// framing on the oscar-serve daemon's Unix socket.
// v5: compressed framing (stored length + codec byte in the header,
// smallest-of {raw, PackBits, plane PackBits} per frame), the
// authenticated TCP handshake (Challenge frame, Hello carries an
// HMAC-style tag over the challenge nonce), and per-point work
// stealing (StealRequest/StealGrant).
// v6: the observability frames. Telemetry ships a worker's trace
// spans and its cumulative metrics snapshot to the coordinator
// (piggybacked on the heartbeat cadence and before each Result);
// MetricsRequest/MetricsResponse let a client scrape a live
// oscar-serve daemon's Prometheus text exposition.
constexpr std::uint16_t kWireVersion = 6;

/**
 * Fixed frame header size (magic + version + type + raw length +
 * stored length + codec byte).
 */
constexpr std::size_t kFrameHeaderSize = 25;

/** Hard upper bound on one frame's payload (sanity, not a target). */
constexpr std::size_t kMaxFramePayload = std::size_t{1} << 30;

/** Message kinds of the protocol. */
enum class FrameType : std::uint16_t
{
    Hello = 1,     ///< worker -> pool: pid + wire version + kernel ISA
    LoadCost = 2,  ///< pool -> worker: cost spec to cache by id
    Task = 3,      ///< pool -> worker: one parameter-point shard
    Result = 4,    ///< worker -> pool: shard values + kernel stats
    Heartbeat = 5, ///< worker -> pool: liveness beacon
    TaskError = 6, ///< worker -> pool: shard evaluation failed
    Shutdown = 7,  ///< pool -> worker: drain and exit
    // v4: client <-> oscar-serve daemon (src/serve/protocol.h).
    Request = 8,   ///< client -> serve: reconstruction/query/stats
    Response = 9,  ///< serve -> client: terminal answer to a Request
    Progress = 10, ///< serve -> client: sampling progress of a Request
    // v5: elastic TCP membership and work stealing.
    Challenge = 11,    ///< pool -> worker: auth nonce (TCP accept)
    StealRequest = 12, ///< pool -> worker: yield a shard's unrun tail
    StealGrant = 13,   ///< worker -> pool: how much of it was kept
    // v6: observability (src/obs/).
    Telemetry = 14,       ///< worker -> pool: spans + metrics snapshot
    MetricsRequest = 15,  ///< client -> serve: scrape live metrics
    MetricsResponse = 16, ///< serve -> client: Prometheus exposition
};

/**
 * CRC-32 (IEEE 802.3 polynomial) of a byte span. The implementation
 * lives in src/common/crc32.h, shared with the on-disk landscape
 * archive; this alias keeps the historical wire-layer entry point.
 */
std::uint32_t crc32(std::span<const std::uint8_t> data);

// ---------------------------------------------------------------------
// Primitive encode/decode
// ---------------------------------------------------------------------

/** Little-endian append-only byte buffer. */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void f64(double v);
    void str(const std::string& s);

    const std::vector<std::uint8_t>& bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked little-endian reader; throws WireError on overrun. */
class WireReader
{
  public:
    explicit WireReader(std::span<const std::uint8_t> data)
        : data_(data)
    {
    }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    double f64();
    std::string str();

    bool atEnd() const { return pos_ == data_.size(); }
    std::size_t remaining() const { return data_.size() - pos_; }

    /** Throw unless the payload was consumed exactly. */
    void expectEnd() const;

  private:
    const std::uint8_t* need(std::size_t n);

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Heartbeat;
    std::vector<std::uint8_t> payload;
    /**
     * Bytes this frame occupied on the wire (header + stored bytes +
     * CRC), as consumed by the decoder. With compression this is at
     * most kFrameHeaderSize + payload.size() + 4; the delta is the
     * framing layer's on-wire saving (BatchStats::bytesOnWire*).
     */
    std::size_t wireBytes = 0;
};

/**
 * Serialize a complete frame (header + stored payload + CRC over the
 * raw payload), compressing the payload when that strictly shrinks it.
 */
std::vector<std::uint8_t> encodeFrame(FrameType type,
                                      std::span<const std::uint8_t> payload);

/**
 * Incremental frame decoder over a byte stream. feed() appends raw
 * bytes; next() yields complete, CRC-verified frames in order, or
 * nullopt while the tail frame is still truncated. Corruption throws
 * WireError, after which the stream is unusable (the transport --
 * a worker connection -- is torn down, not resynchronized).
 */
class FrameDecoder
{
  public:
    void feed(const std::uint8_t* data, std::size_t n);
    std::optional<Frame> next();

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t buffered() const { return buf_.size() - pos_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------

/** Worker greeting. */
struct HelloMsg
{
    std::int32_t pid = 0;
    std::uint16_t wireVersion = kWireVersion;
    kernels::KernelIsa isa = kernels::KernelIsa::Scalar;
    /**
     * Evaluation threads the worker resolved for its own
     * ExecutionEngine pool (its advertised capacity; >= 1).
     */
    std::uint16_t threads = 1;
    /**
     * HMAC-style tag over the pool's Challenge nonce and this Hello's
     * identity fields, keyed by the shared fleet secret (helloAuthTag).
     */
    std::uint64_t authTag = 0;
};

/** Authentication challenge the pool sends on a fresh TCP accept. */
struct ChallengeMsg
{
    std::uint64_t nonce = 0;
};

/**
 * Pool -> worker: the named in-flight shard should yield its unrun
 * tail to an idle worker. The worker answers with a StealGrant naming
 * how many leading points it keeps (its completed prefix) and then
 * sends a Result for exactly that prefix; a worker that already
 * finished (or never knew) the shard simply ignores the request --
 * its full Result is already on the wire ahead of any grant.
 */
struct StealRequestMsg
{
    std::uint64_t taskId = 0;
};

/**
 * Worker -> pool: the shard keeps its first `keep` points; the pool
 * re-shards [keep, size) onto the queue under a fresh task id. keep=0
 * means the worker had not started the shard (no Result will follow).
 * Ordinals were reserved at submission, so the stolen tail evaluates
 * bit-identically wherever it lands.
 */
struct StealGrantMsg
{
    std::uint64_t taskId = 0;
    std::uint64_t keep = 0;
};

/**
 * A cost function a worker can evaluate: ansatz circuit + Hamiltonian
 * + kernel tuning. Content-addressed: `costId` is the FNV-1a hash of
 * the encoded body, so the pool loads each distinct cost into each
 * worker at most once and requeues survive without renegotiation.
 */
struct CostSpec
{
    std::uint64_t costId = 0;
    Circuit circuit;
    PauliSum hamiltonian{1};
    KernelOptions kernel;
};

/** One parameter-point shard with its reserved ordinal base. */
struct TaskMsg
{
    std::uint64_t taskId = 0;
    std::uint64_t costId = 0;
    /** First point's reserved ordinal (point i runs at base + i). */
    std::uint64_t baseOrdinal = 0;
    std::vector<std::vector<double>> points;
};

/** Completed shard: values plus the kernel-layer counter delta. */
struct ResultMsg
{
    std::uint64_t taskId = 0;
    std::vector<double> values;
    KernelStats kernel;
};

/** TaskErrorMsg::code values. */
enum : std::uint8_t
{
    /** The cost evaluation threw; the batch fails. */
    kTaskErrorEvaluation = 0,
    /**
     * The worker no longer holds this cost id (its bounded spec cache
     * evicted it); the pool re-sends the spec and requeues the shard.
     */
    kTaskErrorUnknownCost = 1,
};

/** Failed shard. */
struct TaskErrorMsg
{
    std::uint64_t taskId = 0;
    std::uint8_t code = kTaskErrorEvaluation;
    std::string message;
};

/**
 * v6: one observability report from a worker process -- the spans its
 * tracer drained since the last report (each span ships exactly once)
 * plus its *cumulative* metrics snapshot. Cumulative is what makes
 * the coordinator-side merge deterministic: the pool replaces the
 * worker's previous snapshot instead of accumulating deltas, so lost
 * or reordered reports never double-count. Suppressed entirely when
 * both tracing and metrics are disabled.
 */
struct TelemetryMsg
{
    std::int32_t pid = 0;
    std::vector<obs::SpanRecord> spans;
    obs::MetricsSnapshot metrics;
};

/** v6: client -> oscar-serve metrics scrape. */
struct MetricsRequestMsg
{
    /** Client-chosen id echoed by the MetricsResponse. */
    std::uint64_t tag = 0;
};

/** v6: the daemon's answer -- Prometheus text exposition. */
struct MetricsResponseMsg
{
    std::uint64_t tag = 0;
    std::string text;
};

void encodeHello(WireWriter& w, const HelloMsg& msg);
HelloMsg decodeHello(std::span<const std::uint8_t> payload);

/**
 * The v5 membership tag: an HMAC-style FNV-1a construction over the
 * challenge nonce and the Hello's identity fields (pid, wire version,
 * ISA, capacity), keyed by the shared fleet secret. This gates
 * membership against accidental cross-fleet joins and stray
 * connections -- it is NOT cryptographic security; run fleets on
 * trusted networks.
 */
std::uint64_t helloAuthTag(const std::string& secret, std::uint64_t nonce,
                           const HelloMsg& msg);

void encodeChallenge(WireWriter& w, const ChallengeMsg& msg);
ChallengeMsg decodeChallenge(std::span<const std::uint8_t> payload);

void encodeStealRequest(WireWriter& w, const StealRequestMsg& msg);
StealRequestMsg decodeStealRequest(std::span<const std::uint8_t> payload);

void encodeStealGrant(WireWriter& w, const StealGrantMsg& msg);
StealGrantMsg decodeStealGrant(std::span<const std::uint8_t> payload);

void encodeCircuit(WireWriter& w, const Circuit& circuit);
Circuit decodeCircuit(WireReader& r);

void encodePauliSum(WireWriter& w, const PauliSum& sum);
PauliSum decodePauliSum(WireReader& r);

void encodeKernelOptions(WireWriter& w, const KernelOptions& options);
KernelOptions decodeKernelOptions(WireReader& r);

void encodeKernelStats(WireWriter& w, const KernelStats& stats);
KernelStats decodeKernelStats(WireReader& r);

/**
 * Encode a cost spec body and stamp costId with the body's FNV-1a
 * hash (ignoring any costId already set).
 */
std::vector<std::uint8_t> encodeCostSpec(CostSpec& spec);
CostSpec decodeCostSpec(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeTask(const TaskMsg& msg);
TaskMsg decodeTask(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeResult(const ResultMsg& msg);
ResultMsg decodeResult(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeTaskError(const TaskErrorMsg& msg);
TaskErrorMsg decodeTaskError(std::span<const std::uint8_t> payload);

void encodeMetricsSnapshot(WireWriter& w,
                           const obs::MetricsSnapshot& snapshot);
obs::MetricsSnapshot decodeMetricsSnapshot(WireReader& r);

std::vector<std::uint8_t> encodeTelemetry(const TelemetryMsg& msg);
TelemetryMsg decodeTelemetry(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encodeMetricsRequest(const MetricsRequestMsg& msg);
MetricsRequestMsg decodeMetricsRequest(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t>
encodeMetricsResponse(const MetricsResponseMsg& msg);
MetricsResponseMsg
decodeMetricsResponse(std::span<const std::uint8_t> payload);

} // namespace dist
} // namespace oscar

#endif // OSCAR_DIST_WIRE_H
