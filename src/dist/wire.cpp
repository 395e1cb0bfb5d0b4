#include "src/dist/wire.h"

#include <bit>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/fnv1a.h"
#include "src/common/packbits.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oscar {
namespace dist {

std::uint32_t
crc32(std::span<const std::uint8_t> data)
{
    return ::oscar::crc32(data);
}

// ------------------------------------------------------------ writer

void
WireWriter::u16(std::uint16_t v)
{
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
WireWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
WireWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
WireWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
WireWriter::str(const std::string& s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

// ------------------------------------------------------------ reader

const std::uint8_t*
WireReader::need(std::size_t n)
{
    if (data_.size() - pos_ < n)
        throw WireError("payload truncated");
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
}

std::uint8_t
WireReader::u8()
{
    return *need(1);
}

std::uint16_t
WireReader::u16()
{
    const std::uint8_t* p = need(2);
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
WireReader::u32()
{
    const std::uint8_t* p = need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
WireReader::u64()
{
    const std::uint8_t* p = need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

double
WireReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
WireReader::str()
{
    const std::uint32_t n = u32();
    if (remaining() < n)
        throw WireError("string runs past payload end");
    const std::uint8_t* p = need(n);
    return std::string(reinterpret_cast<const char*>(p), n);
}

void
WireReader::expectEnd() const
{
    if (!atEnd())
        throw WireError("trailing bytes after payload");
}

// ----------------------------------------------------------- framing

std::vector<std::uint8_t>
encodeFrame(FrameType type, std::span<const std::uint8_t> payload)
{
    if (payload.size() > kMaxFramePayload)
        throw WireError("payload exceeds frame size limit");
    obs::ScopedSpan span(obs::SpanCategory::Wire, "encode",
                         static_cast<std::uint64_t>(type));
    // Smallest-of codec selection (shared with the store's on-disk
    // archive): a compressed frame is always strictly smaller than
    // raw, so framing never expands a payload.
    const packbits::Encoded enc = packbits::pickSmallest(payload);
    const std::span<const std::uint8_t> stored =
        enc.codec == packbits::Codec::Raw ? payload
                                          : std::span(enc.bytes);
    WireWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(type));
    w.u64(payload.size());
    w.u64(stored.size());
    w.u8(static_cast<std::uint8_t>(enc.codec));
    std::vector<std::uint8_t> out = w.take();
    // The trailer checks header + RAW payload: a bit flip anywhere in
    // the frame -- type, lengths, codec, or compressed bytes -- fails
    // either a structural check or this CRC, never decoding silently.
    const std::uint32_t crc = ::oscar::crc32(
        std::span<const std::uint8_t>(out.data(), out.size()), payload);
    out.insert(out.end(), stored.begin(), stored.end());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    span.setArgs(payload.size(), out.size());
    if (obs::metricsEnabled()) {
        static obs::Counter& raw_bytes =
            obs::Registry::global().counter("wire.bytes.raw");
        static obs::Counter& stored_bytes =
            obs::Registry::global().counter("wire.bytes.stored");
        static obs::Counter& frames =
            obs::Registry::global().counter("wire.frames.encoded");
        raw_bytes.add(kFrameHeaderSize + payload.size() + 4);
        stored_bytes.add(out.size());
        frames.add();
    }
    return out;
}

void
FrameDecoder::feed(const std::uint8_t* data, std::size_t n)
{
    // Compact lazily: once consumed bytes dominate, drop them so the
    // buffer tracks the unread tail instead of the whole stream.
    if (pos_ > 4096 && pos_ > buf_.size() / 2) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame>
FrameDecoder::next()
{
    const std::size_t avail = buf_.size() - pos_;
    if (avail < kFrameHeaderSize)
        return std::nullopt;
    WireReader header(std::span<const std::uint8_t>(buf_.data() + pos_,
                                                    kFrameHeaderSize));
    if (header.u32() != kWireMagic)
        throw WireError("bad frame magic");
    const std::uint16_t version = header.u16();
    if (version != kWireVersion)
        throw WireError("unsupported wire version " +
                        std::to_string(version));
    const std::uint16_t raw_type = header.u16();
    if (raw_type < static_cast<std::uint16_t>(FrameType::Hello) ||
        raw_type > static_cast<std::uint16_t>(FrameType::MetricsResponse))
        throw WireError("unknown frame type " + std::to_string(raw_type));
    const std::uint64_t raw_len = header.u64();
    if (raw_len > kMaxFramePayload)
        throw WireError("frame payload too large");
    const std::uint64_t stored_len = header.u64();
    const std::uint8_t codec = header.u8();
    if (codec > static_cast<std::uint8_t>(packbits::Codec::PlanePackBits))
        throw WireError("unknown frame codec " + std::to_string(codec));
    // The length pair must be self-consistent before any allocation:
    // a raw frame stores exactly its payload, a compressed frame is
    // strictly smaller (the encoder never picks a codec that fails to
    // shrink), and a plane split only exists for 8-byte records.
    if (codec == static_cast<std::uint8_t>(packbits::Codec::Raw)) {
        if (stored_len != raw_len)
            throw WireError("raw frame stored/raw length mismatch");
    } else {
        if (stored_len >= raw_len)
            throw WireError("compressed frame does not shrink");
        if (codec ==
                static_cast<std::uint8_t>(packbits::Codec::PlanePackBits) &&
            raw_len % 8 != 0)
            throw WireError("plane-split frame not a multiple of 8");
    }
    if (avail < kFrameHeaderSize + stored_len + 4)
        return std::nullopt; // truncated: wait for more bytes
    obs::ScopedSpan span(obs::SpanCategory::Wire, "decode", raw_type,
                         raw_len);
    const std::uint8_t* stored = buf_.data() + pos_ + kFrameHeaderSize;
    Frame frame;
    frame.type = static_cast<FrameType>(raw_type);
    if (codec == static_cast<std::uint8_t>(packbits::Codec::Raw)) {
        frame.payload.assign(stored, stored + raw_len);
    } else {
        try {
            frame.payload = packbits::decode(
                codec, {stored, static_cast<std::size_t>(stored_len)},
                static_cast<std::size_t>(raw_len));
        } catch (const packbits::CodecError& e) {
            throw WireError(e.what());
        }
    }
    std::uint32_t trailer = 0;
    for (int i = 0; i < 4; ++i)
        trailer |=
            static_cast<std::uint32_t>(stored[stored_len + i]) << (8 * i);
    if (::oscar::crc32(std::span<const std::uint8_t>(buf_.data() + pos_,
                                                     kFrameHeaderSize),
                       frame.payload) != trailer)
        throw WireError("frame CRC mismatch");
    frame.wireBytes = kFrameHeaderSize + stored_len + 4;
    pos_ += frame.wireBytes;
    return frame;
}

// ---------------------------------------------------------- messages

void
encodeHello(WireWriter& w, const HelloMsg& msg)
{
    w.i32(msg.pid);
    w.u16(msg.wireVersion);
    w.u8(static_cast<std::uint8_t>(msg.isa));
    w.u16(msg.threads);
    w.u64(msg.authTag);
}

HelloMsg
decodeHello(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    HelloMsg msg;
    msg.pid = r.i32();
    msg.wireVersion = r.u16();
    msg.isa = static_cast<kernels::KernelIsa>(r.u8());
    msg.threads = r.u16();
    if (msg.threads == 0)
        throw WireError("hello advertises zero capacity");
    msg.authTag = r.u64();
    r.expectEnd();
    return msg;
}

std::uint64_t
helloAuthTag(const std::string& secret, std::uint64_t nonce,
             const HelloMsg& msg)
{
    // HMAC-style two-pass FNV-1a: tag = H(k^opad || H(k^ipad || body)),
    // body = nonce plus the Hello's identity fields, so a tag cannot
    // be replayed for a different nonce or a rewritten capacity. A
    // membership gate, not cryptographic security (see wire.h).
    constexpr std::uint64_t kIpad = 0x3636363636363636ull;
    constexpr std::uint64_t kOpad = 0x5c5c5c5c5c5c5c5cull;
    const std::uint64_t key = fnv1a(
        {reinterpret_cast<const std::uint8_t*>(secret.data()),
         secret.size()});
    std::uint64_t inner = kFnv1aOffsetBasis;
    inner = fnv1aAppendU64(inner, key ^ kIpad);
    inner = fnv1aAppendU64(inner, nonce);
    inner = fnv1aAppendU64(inner,
                           static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(msg.pid)));
    inner = fnv1aAppendU64(inner, msg.wireVersion);
    inner = fnv1aAppendU64(inner,
                           static_cast<std::uint64_t>(msg.isa));
    inner = fnv1aAppendU64(inner, msg.threads);
    std::uint64_t outer = kFnv1aOffsetBasis;
    outer = fnv1aAppendU64(outer, key ^ kOpad);
    outer = fnv1aAppendU64(outer, inner);
    return outer;
}

void
encodeChallenge(WireWriter& w, const ChallengeMsg& msg)
{
    w.u64(msg.nonce);
}

ChallengeMsg
decodeChallenge(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    ChallengeMsg msg;
    msg.nonce = r.u64();
    r.expectEnd();
    return msg;
}

void
encodeStealRequest(WireWriter& w, const StealRequestMsg& msg)
{
    w.u64(msg.taskId);
}

StealRequestMsg
decodeStealRequest(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    StealRequestMsg msg;
    msg.taskId = r.u64();
    r.expectEnd();
    return msg;
}

void
encodeStealGrant(WireWriter& w, const StealGrantMsg& msg)
{
    w.u64(msg.taskId);
    w.u64(msg.keep);
}

StealGrantMsg
decodeStealGrant(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    StealGrantMsg msg;
    msg.taskId = r.u64();
    msg.keep = r.u64();
    r.expectEnd();
    return msg;
}

void
encodeCircuit(WireWriter& w, const Circuit& circuit)
{
    w.i32(circuit.numQubits());
    w.i32(circuit.numParams());
    w.u32(static_cast<std::uint32_t>(circuit.numGates()));
    for (const Gate& g : circuit.gates()) {
        w.u8(static_cast<std::uint8_t>(g.kind));
        w.i32(g.qubits[0]);
        w.i32(g.qubits[1]);
        w.f64(g.angle);
        w.i32(g.paramIndex);
        w.f64(g.coeff);
    }
}

Circuit
decodeCircuit(WireReader& r)
{
    const std::int32_t num_qubits = r.i32();
    const std::int32_t num_params = r.i32();
    if (num_qubits < 1 || num_qubits > 64 || num_params < 0)
        throw WireError("circuit header out of range");
    Circuit circuit(num_qubits, num_params);
    const std::uint32_t num_gates = r.u32();
    for (std::uint32_t i = 0; i < num_gates; ++i) {
        Gate g;
        const std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(GateKind::RZZ))
            throw WireError("unknown gate kind");
        g.kind = static_cast<GateKind>(kind);
        g.qubits[0] = r.i32();
        g.qubits[1] = r.i32();
        g.angle = r.f64();
        g.paramIndex = r.i32();
        g.coeff = r.f64();
        if (g.paramIndex >= num_params)
            throw WireError("gate parameter index out of range");
        try {
            circuit.append(g); // validates qubit indices
        } catch (const std::exception& e) {
            throw WireError(std::string("invalid gate: ") + e.what());
        }
    }
    return circuit;
}

void
encodePauliSum(WireWriter& w, const PauliSum& sum)
{
    w.i32(sum.numQubits());
    w.u32(static_cast<std::uint32_t>(sum.numTerms()));
    for (const PauliTerm& t : sum.terms()) {
        w.f64(t.coeff);
        w.str(t.pauli.toLabel());
    }
}

PauliSum
decodePauliSum(WireReader& r)
{
    const std::int32_t num_qubits = r.i32();
    if (num_qubits < 1 || num_qubits > 64)
        throw WireError("pauli sum qubit count out of range");
    PauliSum sum(num_qubits);
    const std::uint32_t num_terms = r.u32();
    for (std::uint32_t i = 0; i < num_terms; ++i) {
        const double coeff = r.f64();
        const std::string label = r.str();
        try {
            sum.add(coeff, label);
        } catch (const std::exception& e) {
            throw WireError(std::string("invalid pauli term: ") + e.what());
        }
    }
    return sum;
}

void
encodeKernelOptions(WireWriter& w, const KernelOptions& options)
{
    w.u8(options.prefixCache ? 1 : 0);
    w.u64(options.prefixCacheBudgetBytes);
    w.u8(static_cast<std::uint8_t>(options.isa));
    w.i32(options.blockWindow);
    w.u8(options.batchedExpectation ? 1 : 0);
    w.i32(options.fuseWindow);
}

KernelOptions
decodeKernelOptions(WireReader& r)
{
    KernelOptions options;
    options.prefixCache = r.u8() != 0;
    options.prefixCacheBudgetBytes = r.u64();
    const std::uint8_t isa = r.u8();
    if (isa > static_cast<std::uint8_t>(kernels::KernelIsa::Avx512) &&
        isa != static_cast<std::uint8_t>(kernels::KernelIsa::Auto))
        throw WireError("unknown kernel ISA");
    options.isa = static_cast<kernels::KernelIsa>(isa);
    options.blockWindow = r.i32();
    options.batchedExpectation = r.u8() != 0;
    options.fuseWindow = r.i32();
    return options;
}

void
encodeKernelStats(WireWriter& w, const KernelStats& stats)
{
    w.u64(stats.cacheHits);
    w.u64(stats.cacheLookups);
    w.u64(stats.cacheEvictions);
    w.u8(static_cast<std::uint8_t>(stats.isa));
    w.u64(stats.blockedGroupRuns);
    w.u64(stats.blockedOpsApplied);
    w.u64(stats.batchedExpectationPoints);
    w.u64(stats.fusedSuperKernels);
    w.u64(stats.fusedOpsCollapsed);
    w.u64(stats.batchedPauliPoints);
}

KernelStats
decodeKernelStats(WireReader& r)
{
    KernelStats stats;
    stats.cacheHits = r.u64();
    stats.cacheLookups = r.u64();
    stats.cacheEvictions = r.u64();
    stats.isa = static_cast<kernels::KernelIsa>(r.u8());
    stats.blockedGroupRuns = r.u64();
    stats.blockedOpsApplied = r.u64();
    stats.batchedExpectationPoints = r.u64();
    stats.fusedSuperKernels = r.u64();
    stats.fusedOpsCollapsed = r.u64();
    stats.batchedPauliPoints = r.u64();
    return stats;
}

std::vector<std::uint8_t>
encodeCostSpec(CostSpec& spec)
{
    WireWriter w;
    encodeCircuit(w, spec.circuit);
    encodePauliSum(w, spec.hamiltonian);
    encodeKernelOptions(w, spec.kernel);
    const std::vector<std::uint8_t>& body = w.bytes();
    spec.costId = fnv1a(body);
    WireWriter framed;
    framed.u64(spec.costId);
    std::vector<std::uint8_t> out = framed.take();
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

CostSpec
decodeCostSpec(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    CostSpec spec;
    spec.costId = r.u64();
    spec.circuit = decodeCircuit(r);
    spec.hamiltonian = decodePauliSum(r);
    spec.kernel = decodeKernelOptions(r);
    r.expectEnd();
    if (fnv1a(payload.subspan(8)) != spec.costId)
        throw WireError("cost spec id does not match body hash");
    return spec;
}

std::vector<std::uint8_t>
encodeTask(const TaskMsg& msg)
{
    WireWriter w;
    w.u64(msg.taskId);
    w.u64(msg.costId);
    w.u64(msg.baseOrdinal);
    w.u32(static_cast<std::uint32_t>(msg.points.size()));
    const std::size_t dim = msg.points.empty() ? 0 : msg.points[0].size();
    w.u32(static_cast<std::uint32_t>(dim));
    for (const auto& p : msg.points) {
        if (p.size() != dim)
            throw WireError("ragged point list");
        for (double v : p)
            w.f64(v);
    }
    return w.take();
}

TaskMsg
decodeTask(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    TaskMsg msg;
    msg.taskId = r.u64();
    msg.costId = r.u64();
    msg.baseOrdinal = r.u64();
    const std::uint32_t count = r.u32();
    const std::uint32_t dim = r.u32();
    // dim 0 would defeat the size plausibility check below and let a
    // crafted count reach a huge allocation; the protocol never ships
    // zero-dimensional points. The division form cannot overflow the
    // way count * dim * 8 could, so a crafted (count, dim) pair is
    // always a clean WireError, never a giant reserve().
    if (dim == 0 && count != 0)
        throw WireError("task with zero-dimensional points");
    if (dim != 0 &&
        count > r.remaining() / (static_cast<std::uint64_t>(dim) * 8))
        throw WireError("task points run past payload end");
    msg.points.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        std::vector<double> p(dim);
        for (std::uint32_t d = 0; d < dim; ++d)
            p[d] = r.f64();
        msg.points.push_back(std::move(p));
    }
    r.expectEnd();
    return msg;
}

std::vector<std::uint8_t>
encodeResult(const ResultMsg& msg)
{
    WireWriter w;
    w.u64(msg.taskId);
    w.u32(static_cast<std::uint32_t>(msg.values.size()));
    for (double v : msg.values)
        w.f64(v);
    encodeKernelStats(w, msg.kernel);
    return w.take();
}

ResultMsg
decodeResult(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    ResultMsg msg;
    msg.taskId = r.u64();
    const std::uint32_t count = r.u32();
    if (static_cast<std::uint64_t>(count) * 8 > r.remaining())
        throw WireError("result values run past payload end");
    msg.values.resize(count);
    for (std::uint32_t i = 0; i < count; ++i)
        msg.values[i] = r.f64();
    msg.kernel = decodeKernelStats(r);
    r.expectEnd();
    return msg;
}

std::vector<std::uint8_t>
encodeTaskError(const TaskErrorMsg& msg)
{
    WireWriter w;
    w.u64(msg.taskId);
    w.u8(msg.code);
    w.str(msg.message);
    return w.take();
}

TaskErrorMsg
decodeTaskError(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    TaskErrorMsg msg;
    msg.taskId = r.u64();
    msg.code = r.u8();
    msg.message = r.str();
    r.expectEnd();
    return msg;
}

// --------------------------------------------------- v6 observability

void
encodeMetricsSnapshot(WireWriter& w, const obs::MetricsSnapshot& snapshot)
{
    w.u32(static_cast<std::uint32_t>(snapshot.counters.size()));
    for (const auto& [name, value] : snapshot.counters) {
        w.str(name);
        w.u64(value);
    }
    w.u32(static_cast<std::uint32_t>(snapshot.gauges.size()));
    for (const auto& [name, value] : snapshot.gauges) {
        w.str(name);
        w.u64(value);
    }
    w.u32(static_cast<std::uint32_t>(snapshot.histograms.size()));
    for (const auto& [name, hist] : snapshot.histograms) {
        w.str(name);
        // Sparse buckets: 65 log2 classes, few ever occupied.
        std::uint32_t occupied = 0;
        for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i)
            if (hist.buckets[i] != 0)
                ++occupied;
        w.u32(occupied);
        for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
            if (hist.buckets[i] == 0)
                continue;
            w.u8(static_cast<std::uint8_t>(i));
            w.u64(hist.buckets[i]);
        }
        w.u64(hist.count);
        w.u64(hist.sum);
    }
}

obs::MetricsSnapshot
decodeMetricsSnapshot(WireReader& r)
{
    obs::MetricsSnapshot snapshot;
    const std::uint32_t num_counters = r.u32();
    for (std::uint32_t i = 0; i < num_counters; ++i) {
        const std::string name = r.str();
        snapshot.counters[name] = r.u64();
    }
    const std::uint32_t num_gauges = r.u32();
    for (std::uint32_t i = 0; i < num_gauges; ++i) {
        const std::string name = r.str();
        snapshot.gauges[name] = r.u64();
    }
    const std::uint32_t num_histograms = r.u32();
    for (std::uint32_t i = 0; i < num_histograms; ++i) {
        const std::string name = r.str();
        obs::HistogramSnapshot hist;
        const std::uint32_t occupied = r.u32();
        if (occupied > obs::kHistogramBuckets)
            throw WireError("histogram bucket count out of range");
        for (std::uint32_t b = 0; b < occupied; ++b) {
            const std::uint8_t index = r.u8();
            if (index >= obs::kHistogramBuckets)
                throw WireError("histogram bucket index out of range");
            hist.buckets[index] = r.u64();
        }
        hist.count = r.u64();
        hist.sum = r.u64();
        snapshot.histograms[name] = hist;
    }
    return snapshot;
}

std::vector<std::uint8_t>
encodeTelemetry(const TelemetryMsg& msg)
{
    WireWriter w;
    w.i32(msg.pid);
    w.u32(static_cast<std::uint32_t>(msg.spans.size()));
    for (const obs::SpanRecord& span : msg.spans) {
        w.u64(span.t0Ns);
        w.u64(span.durNs);
        w.u8(static_cast<std::uint8_t>(span.category));
        w.str(span.name);
        w.u64(span.arg0);
        w.u64(span.arg1);
        w.u32(span.tid);
    }
    encodeMetricsSnapshot(w, msg.metrics);
    return w.take();
}

TelemetryMsg
decodeTelemetry(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    TelemetryMsg msg;
    msg.pid = r.i32();
    const std::uint32_t num_spans = r.u32();
    // Each span occupies at least 45 payload bytes; bound the reserve
    // from what is actually present, like decodeTask does.
    if (num_spans > r.remaining() / 45)
        throw WireError("telemetry spans run past payload end");
    msg.spans.reserve(num_spans);
    for (std::uint32_t i = 0; i < num_spans; ++i) {
        obs::SpanRecord span;
        span.t0Ns = r.u64();
        span.durNs = r.u64();
        const std::uint8_t cat = r.u8();
        if (cat > static_cast<std::uint8_t>(obs::SpanCategory::Serve))
            throw WireError("unknown span category");
        span.category = static_cast<obs::SpanCategory>(cat);
        const std::string name = r.str();
        if (name.size() > obs::kSpanNameChars)
            throw WireError("span name too long");
        std::memcpy(span.name, name.data(), name.size());
        span.arg0 = r.u64();
        span.arg1 = r.u64();
        span.tid = r.u32();
        // The sender's pid names the recording process fleet-wide.
        span.pid = msg.pid;
        msg.spans.push_back(span);
    }
    msg.metrics = decodeMetricsSnapshot(r);
    r.expectEnd();
    return msg;
}

std::vector<std::uint8_t>
encodeMetricsRequest(const MetricsRequestMsg& msg)
{
    WireWriter w;
    w.u64(msg.tag);
    return w.take();
}

MetricsRequestMsg
decodeMetricsRequest(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    MetricsRequestMsg msg;
    msg.tag = r.u64();
    r.expectEnd();
    return msg;
}

std::vector<std::uint8_t>
encodeMetricsResponse(const MetricsResponseMsg& msg)
{
    WireWriter w;
    w.u64(msg.tag);
    w.str(msg.text);
    return w.take();
}

MetricsResponseMsg
decodeMetricsResponse(std::span<const std::uint8_t> payload)
{
    WireReader r(payload);
    MetricsResponseMsg msg;
    msg.tag = r.u64();
    msg.text = r.str();
    r.expectEnd();
    return msg;
}

} // namespace dist
} // namespace oscar
