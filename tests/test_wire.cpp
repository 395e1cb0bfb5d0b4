/**
 * @file
 * Wire-format tests for the distributed execution subsystem:
 *
 *  - round-trip property tests over randomized task specs, tasks, and
 *    result frames (circuits with every gate kind, random Pauli sums,
 *    random kernel options/stats, random point shards);
 *  - framing robustness: every truncation of a valid frame yields "no
 *    frame yet" (never a bogus message), and corruption -- flipped
 *    payload bytes, bad magic, wrong version, unknown type, oversized
 *    length, CRC damage, trailing payload bytes -- is rejected with
 *    WireError;
 *  - streamed decode: frames split at arbitrary byte boundaries
 *    reassemble exactly;
 *  - v6 observability frames: Telemetry (spans + cumulative metrics
 *    snapshot) and MetricsRequest / MetricsResponse round-trip, and
 *    the telemetry decoder rejects implausible span counts, unknown
 *    categories, and oversized span names.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/dist/wire.h"

namespace oscar {
namespace dist {
namespace {

Circuit
randomCircuit(Rng& rng, int num_qubits, int num_params)
{
    Circuit circuit(num_qubits, num_params);
    const int num_gates = 5 + static_cast<int>(rng.uniformInt(40));
    for (int i = 0; i < num_gates; ++i) {
        const int kind_index = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(GateKind::RZZ) + 1));
        const auto kind = static_cast<GateKind>(kind_index);
        const int q0 = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(num_qubits)));
        int q1 = q0;
        while (q1 == q0)
            q1 = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(num_qubits)));
        Gate g;
        g.kind = kind;
        g.qubits[0] = q0;
        g.qubits[1] = gateArity(kind) == 2 ? q1 : -1;
        if (gateIsParameterized(kind)) {
            g.angle = rng.uniform(-3.0, 3.0);
            if (num_params > 0 && rng.uniform() < 0.7) {
                g.paramIndex = static_cast<int>(rng.uniformInt(
                    static_cast<std::uint64_t>(num_params)));
                g.coeff = rng.uniform(-2.0, 2.0);
            }
        }
        circuit.append(g);
    }
    return circuit;
}

PauliSum
randomPauliSum(Rng& rng, int num_qubits)
{
    PauliSum sum(num_qubits);
    const int num_terms = 1 + static_cast<int>(rng.uniformInt(10));
    for (int t = 0; t < num_terms; ++t) {
        PauliString pauli(num_qubits);
        for (int q = 0; q < num_qubits; ++q)
            pauli.setOp(q,
                        static_cast<PauliOp>(rng.uniformInt(4)));
        sum.add(rng.uniform(-2.0, 2.0), pauli);
    }
    return sum;
}

KernelOptions
randomKernelOptions(Rng& rng)
{
    KernelOptions options;
    options.prefixCache = rng.uniform() < 0.5;
    options.prefixCacheBudgetBytes = rng.uniformInt(1u << 28);
    const kernels::KernelIsa isas[] = {kernels::KernelIsa::Scalar,
                                       kernels::KernelIsa::Avx2,
                                       kernels::KernelIsa::Avx512};
    options.isa = isas[rng.uniformInt(3)];
    options.blockWindow = static_cast<int>(rng.uniformInt(12)) - 1;
    options.batchedExpectation = rng.uniform() < 0.5;
    options.fuseWindow = static_cast<int>(rng.uniformInt(8));
    return options;
}

KernelStats
randomKernelStats(Rng& rng)
{
    KernelStats stats;
    stats.cacheHits = rng.uniformInt(1000);
    stats.cacheLookups = stats.cacheHits + rng.uniformInt(1000);
    stats.cacheEvictions = rng.uniformInt(100);
    const kernels::KernelIsa isas[] = {kernels::KernelIsa::Scalar,
                                       kernels::KernelIsa::Avx2,
                                       kernels::KernelIsa::Avx512};
    stats.isa = isas[rng.uniformInt(3)];
    stats.blockedGroupRuns = rng.uniformInt(500);
    stats.blockedOpsApplied = rng.uniformInt(5000);
    stats.batchedExpectationPoints = rng.uniformInt(500);
    stats.fusedSuperKernels = rng.uniformInt(500);
    stats.fusedOpsCollapsed = rng.uniformInt(5000);
    stats.batchedPauliPoints = rng.uniformInt(500);
    return stats;
}

void
expectCircuitsEqual(const Circuit& a, const Circuit& b)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.numParams(), b.numParams());
    ASSERT_EQ(a.numGates(), b.numGates());
    for (std::size_t i = 0; i < a.numGates(); ++i) {
        const Gate& ga = a.gates()[i];
        const Gate& gb = b.gates()[i];
        EXPECT_EQ(ga.kind, gb.kind);
        EXPECT_EQ(ga.qubits, gb.qubits);
        EXPECT_EQ(ga.angle, gb.angle); // bitwise: wire is bit-exact
        EXPECT_EQ(ga.paramIndex, gb.paramIndex);
        EXPECT_EQ(ga.coeff, gb.coeff);
    }
}

void
expectPauliSumsEqual(const PauliSum& a, const PauliSum& b)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.numTerms(), b.numTerms());
    for (std::size_t t = 0; t < a.numTerms(); ++t) {
        EXPECT_EQ(a.terms()[t].coeff, b.terms()[t].coeff);
        EXPECT_EQ(a.terms()[t].pauli, b.terms()[t].pauli);
    }
}

TEST(WireTest, CostSpecRoundTripRandomized)
{
    Rng rng(123);
    for (int rep = 0; rep < 50; ++rep) {
        const int num_qubits = 2 + static_cast<int>(rng.uniformInt(10));
        const int num_params = static_cast<int>(rng.uniformInt(6));
        CostSpec spec;
        spec.circuit = randomCircuit(rng, num_qubits, num_params);
        spec.hamiltonian = randomPauliSum(rng, num_qubits);
        spec.kernel = randomKernelOptions(rng);

        const std::vector<std::uint8_t> payload = encodeCostSpec(spec);
        EXPECT_NE(spec.costId, 0u);
        const CostSpec back = decodeCostSpec(payload);

        EXPECT_EQ(back.costId, spec.costId);
        expectCircuitsEqual(back.circuit, spec.circuit);
        expectPauliSumsEqual(back.hamiltonian, spec.hamiltonian);
        EXPECT_EQ(back.kernel.prefixCache, spec.kernel.prefixCache);
        EXPECT_EQ(back.kernel.prefixCacheBudgetBytes,
                  spec.kernel.prefixCacheBudgetBytes);
        EXPECT_EQ(back.kernel.isa, spec.kernel.isa);
        EXPECT_EQ(back.kernel.blockWindow, spec.kernel.blockWindow);
        EXPECT_EQ(back.kernel.batchedExpectation,
                  spec.kernel.batchedExpectation);
        EXPECT_EQ(back.kernel.fuseWindow, spec.kernel.fuseWindow);
    }
}

TEST(WireTest, CostSpecIdIsContentAddressed)
{
    Rng rng(7);
    CostSpec a;
    a.circuit = randomCircuit(rng, 4, 2);
    a.hamiltonian = randomPauliSum(rng, 4);
    CostSpec b = a;
    const std::vector<std::uint8_t> pa = encodeCostSpec(a);
    const std::vector<std::uint8_t> pb = encodeCostSpec(b);
    EXPECT_EQ(a.costId, b.costId);
    EXPECT_EQ(pa, pb);

    // Any semantic change moves the id.
    b.kernel.blockWindow += 1;
    encodeCostSpec(b);
    EXPECT_NE(a.costId, b.costId);
}

TEST(WireTest, TaskRoundTripRandomized)
{
    Rng rng(321);
    for (int rep = 0; rep < 50; ++rep) {
        TaskMsg task;
        task.taskId = rng.uniformInt(1u << 30);
        task.costId = rng.uniformInt(1u << 30);
        task.baseOrdinal = rng.uniformInt(1u << 30);
        const std::size_t count = rng.uniformInt(20);
        const std::size_t dim = 1 + rng.uniformInt(6);
        for (std::size_t i = 0; i < count; ++i) {
            std::vector<double> p(dim);
            for (double& v : p)
                v = rng.uniform(-10.0, 10.0);
            task.points.push_back(std::move(p));
        }
        const TaskMsg back = decodeTask(encodeTask(task));
        EXPECT_EQ(back.taskId, task.taskId);
        EXPECT_EQ(back.costId, task.costId);
        EXPECT_EQ(back.baseOrdinal, task.baseOrdinal);
        ASSERT_EQ(back.points.size(), task.points.size());
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(back.points[i], task.points[i]); // bitwise
    }
}

TEST(WireTest, ResultRoundTripRandomized)
{
    Rng rng(99);
    for (int rep = 0; rep < 50; ++rep) {
        ResultMsg msg;
        msg.taskId = rng.uniformInt(1u << 30);
        const std::size_t count = rng.uniformInt(64);
        for (std::size_t i = 0; i < count; ++i)
            msg.values.push_back(rng.uniform(-100.0, 100.0));
        msg.kernel = randomKernelStats(rng);

        const ResultMsg back = decodeResult(encodeResult(msg));
        EXPECT_EQ(back.taskId, msg.taskId);
        EXPECT_EQ(back.values, msg.values); // bitwise
        EXPECT_EQ(back.kernel.cacheHits, msg.kernel.cacheHits);
        EXPECT_EQ(back.kernel.cacheLookups, msg.kernel.cacheLookups);
        EXPECT_EQ(back.kernel.cacheEvictions, msg.kernel.cacheEvictions);
        EXPECT_EQ(back.kernel.isa, msg.kernel.isa);
        EXPECT_EQ(back.kernel.blockedGroupRuns,
                  msg.kernel.blockedGroupRuns);
        EXPECT_EQ(back.kernel.blockedOpsApplied,
                  msg.kernel.blockedOpsApplied);
        EXPECT_EQ(back.kernel.batchedExpectationPoints,
                  msg.kernel.batchedExpectationPoints);
        EXPECT_EQ(back.kernel.fusedSuperKernels,
                  msg.kernel.fusedSuperKernels);
        EXPECT_EQ(back.kernel.fusedOpsCollapsed,
                  msg.kernel.fusedOpsCollapsed);
        EXPECT_EQ(back.kernel.batchedPauliPoints,
                  msg.kernel.batchedPauliPoints);
    }
}

TEST(WireTest, TaskErrorRoundTrip)
{
    TaskErrorMsg msg;
    msg.taskId = 42;
    msg.code = kTaskErrorUnknownCost;
    msg.message = "statevector exploded";
    const TaskErrorMsg back = decodeTaskError(encodeTaskError(msg));
    EXPECT_EQ(back.taskId, msg.taskId);
    EXPECT_EQ(back.code, kTaskErrorUnknownCost);
    EXPECT_EQ(back.message, msg.message);
}

TEST(WireTest, TaskRejectsZeroDimensionalPoints)
{
    // A crafted frame claiming a huge point count with dim = 0 must
    // be rejected before any allocation is sized from the count.
    WireWriter w;
    w.u64(1);          // taskId
    w.u64(2);          // costId
    w.u64(3);          // baseOrdinal
    w.u32(0xFFFFFFFF); // count
    w.u32(0);          // dim
    EXPECT_THROW(decodeTask(w.bytes()), WireError);
}

TEST(WireTest, HelloRoundTrip)
{
    HelloMsg msg;
    msg.pid = 12345;
    msg.isa = kernels::KernelIsa::Avx2;
    msg.threads = 16; // v3: advertised hybrid capacity
    WireWriter w;
    encodeHello(w, msg);
    const HelloMsg back = decodeHello(w.bytes());
    EXPECT_EQ(back.pid, 12345);
    EXPECT_EQ(back.wireVersion, kWireVersion);
    EXPECT_EQ(back.isa, kernels::KernelIsa::Avx2);
    EXPECT_EQ(back.threads, 16);
}

TEST(WireTest, HelloMissingFieldsIsRejected)
{
    // Every Hello carries capacity and auth tag; a body that stops
    // after the ISA byte or after the capacity is truncated.
    WireWriter w;
    w.i32(777);
    w.u16(kWireVersion);
    w.u8(0); // scalar ISA
    EXPECT_THROW(decodeHello(w.bytes()), WireError);
    w.u16(4);
    EXPECT_THROW(decodeHello(w.bytes()), WireError);
}

TEST(WireTest, HelloWithZeroCapacityIsRejected)
{
    // Capacity is resolved worker-side before the greeting; zero can
    // only mean a corrupt or buggy peer, and the coordinator's
    // proportional dispatch divides by it.
    HelloMsg msg;
    msg.pid = 1;
    msg.threads = 0;
    WireWriter w;
    encodeHello(w, msg);
    EXPECT_THROW(decodeHello(w.bytes()), WireError);
}

TEST(WireTest, PriorVersionFramesAreRejected)
{
    // Frame-level version negotiation is all-or-nothing: a v2 frame
    // header (offset 4 holds the little-endian version) is torn down,
    // not parsed leniently -- both ends come from the same build.
    std::vector<std::uint8_t> bytes = encodeFrame(FrameType::Heartbeat, {});
    bytes[4] = 2;
    bytes[5] = 0;
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_THROW(decoder.next(), WireError);
}

// ------------------------------------------------------------ framing

std::vector<std::uint8_t>
sampleFrame()
{
    TaskErrorMsg msg;
    msg.taskId = 7;
    msg.message = "payload with some body to checksum";
    return encodeFrame(FrameType::TaskError, encodeTaskError(msg));
}

TEST(WireTest, FrameRoundTripAndStreamedReassembly)
{
    const std::vector<std::uint8_t> bytes = sampleFrame();

    // Whole frame at once.
    {
        FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        const auto frame = decoder.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, FrameType::TaskError);
        EXPECT_EQ(decodeTaskError(frame->payload).message,
                  "payload with some body to checksum");
        EXPECT_FALSE(decoder.next().has_value());
    }

    // Byte-by-byte: exactly one frame, only after the last byte.
    {
        FrameDecoder decoder;
        for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
            decoder.feed(&bytes[i], 1);
            EXPECT_FALSE(decoder.next().has_value());
        }
        decoder.feed(&bytes.back(), 1);
        ASSERT_TRUE(decoder.next().has_value());
    }

    // Two concatenated frames split at an arbitrary boundary.
    {
        std::vector<std::uint8_t> two = bytes;
        two.insert(two.end(), bytes.begin(), bytes.end());
        FrameDecoder decoder;
        decoder.feed(two.data(), bytes.size() + 5);
        ASSERT_TRUE(decoder.next().has_value());
        EXPECT_FALSE(decoder.next().has_value());
        decoder.feed(two.data() + bytes.size() + 5,
                     two.size() - bytes.size() - 5);
        ASSERT_TRUE(decoder.next().has_value());
        EXPECT_FALSE(decoder.next().has_value());
    }
}

TEST(WireTest, TruncatedFramesNeverYieldAMessage)
{
    const std::vector<std::uint8_t> bytes = sampleFrame();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        FrameDecoder decoder;
        decoder.feed(bytes.data(), len);
        std::optional<Frame> frame;
        EXPECT_NO_THROW(frame = decoder.next()) << "prefix " << len;
        EXPECT_FALSE(frame.has_value()) << "prefix " << len;
    }
}

TEST(WireTest, CorruptFramesAreRejected)
{
    const std::vector<std::uint8_t> bytes = sampleFrame();

    // Bad magic.
    {
        std::vector<std::uint8_t> bad = bytes;
        bad[0] ^= 0xFF;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError);
    }
    // Unsupported version.
    {
        std::vector<std::uint8_t> bad = bytes;
        bad[4] = 0xEE;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError);
    }
    // Unknown frame type.
    {
        std::vector<std::uint8_t> bad = bytes;
        bad[6] = 0x7F;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError);
    }
    // Absurd payload length.
    {
        std::vector<std::uint8_t> bad = bytes;
        bad[12] = 0xFF; // high byte of the u64 length
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError);
    }
    // Every single flipped payload byte must trip the CRC.
    for (std::size_t i = kFrameHeaderSize; i + 4 < bytes.size(); ++i) {
        std::vector<std::uint8_t> bad = bytes;
        bad[i] ^= 0x01;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError) << "byte " << i;
    }
    // Damaged CRC trailer.
    {
        std::vector<std::uint8_t> bad = bytes;
        bad.back() ^= 0x10;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        EXPECT_THROW(decoder.next(), WireError);
    }
}

TEST(WireTest, PayloadDecodersRejectTruncationAndTrailingBytes)
{
    TaskMsg task;
    task.taskId = 1;
    task.costId = 2;
    task.baseOrdinal = 3;
    task.points = {{0.5, -0.5}, {1.5, 2.5}};
    const std::vector<std::uint8_t> payload = encodeTask(task);

    for (std::size_t len = 0; len < payload.size(); ++len) {
        EXPECT_THROW(decodeTask({payload.data(), len}), WireError)
            << "prefix " << len;
    }
    std::vector<std::uint8_t> extra = payload;
    extra.push_back(0);
    EXPECT_THROW(decodeTask(extra), WireError);

    // Cost spec: a flipped body byte must break the content address.
    Rng rng(5);
    CostSpec spec;
    spec.circuit = randomCircuit(rng, 3, 2);
    spec.hamiltonian = randomPauliSum(rng, 3);
    std::vector<std::uint8_t> cost_payload = encodeCostSpec(spec);
    cost_payload[cost_payload.size() / 2] ^= 0x01;
    EXPECT_THROW(decodeCostSpec(cost_payload), WireError);
}

TEST(WireTest, Crc32KnownVector)
{
    // CRC-32("123456789") is the classic check value 0xCBF43926.
    const char* s = "123456789";
    EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s), 9}),
              0xCBF43926u);
    // The wire-layer entry point and the shared implementation the
    // landscape archive uses (src/common/crc32.h) are the same code.
    EXPECT_EQ(oscar::crc32({reinterpret_cast<const std::uint8_t*>(s), 9}),
              crc32({reinterpret_cast<const std::uint8_t*>(s), 9}));
}

TEST(WireTest, ServeFrameTypesRoundTrip)
{
    // v4 extends the frame-type range with the serving protocol's
    // Request / Response / Progress; the decoder accepts all three.
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
    for (const FrameType type :
         {FrameType::Request, FrameType::Response, FrameType::Progress}) {
        const std::vector<std::uint8_t> bytes =
            encodeFrame(type, payload);
        FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        const std::optional<Frame> frame = decoder.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, type);
        EXPECT_EQ(frame->payload, payload);
    }

    // The type one past the v6 range (MetricsResponse) is still
    // unknown.
    std::vector<std::uint8_t> bad =
        encodeFrame(FrameType::Progress, payload);
    bad[6] = static_cast<std::uint8_t>(
        static_cast<std::uint16_t>(FrameType::MetricsResponse) + 1);
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    EXPECT_THROW(decoder.next(), WireError);
}

TEST(WireTest, FleetFrameTypesRoundTrip)
{
    // v5 adds the elastic-fleet handshake and steal protocol frames.
    const std::vector<std::uint8_t> payload = {9, 8, 7};
    for (const FrameType type : {FrameType::Challenge,
                                 FrameType::StealRequest,
                                 FrameType::StealGrant}) {
        const std::vector<std::uint8_t> bytes =
            encodeFrame(type, payload);
        FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        const std::optional<Frame> frame = decoder.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, type);
        EXPECT_EQ(frame->payload, payload);
        EXPECT_EQ(frame->wireBytes, bytes.size());
    }
}

TEST(WireTest, ChallengeAndStealMessagesRoundTrip)
{
    {
        ChallengeMsg msg;
        msg.nonce = 0x0123456789ABCDEFull;
        WireWriter w;
        encodeChallenge(w, msg);
        EXPECT_EQ(decodeChallenge(w.bytes()).nonce, msg.nonce);
        std::vector<std::uint8_t> extra = w.bytes();
        extra.push_back(0);
        EXPECT_THROW(decodeChallenge(extra), WireError);
    }
    {
        StealRequestMsg msg;
        msg.taskId = 42;
        WireWriter w;
        encodeStealRequest(w, msg);
        EXPECT_EQ(decodeStealRequest(w.bytes()).taskId, 42u);
    }
    {
        StealGrantMsg msg;
        msg.taskId = 43;
        msg.keep = 7;
        WireWriter w;
        encodeStealGrant(w, msg);
        const StealGrantMsg back = decodeStealGrant(w.bytes());
        EXPECT_EQ(back.taskId, 43u);
        EXPECT_EQ(back.keep, 7u);
    }
}

TEST(WireTest, ObservabilityFrameTypesRoundTrip)
{
    // v6 adds the telemetry and metrics-scrape frames.
    const std::vector<std::uint8_t> payload = {5, 6};
    for (const FrameType type : {FrameType::Telemetry,
                                 FrameType::MetricsRequest,
                                 FrameType::MetricsResponse}) {
        const std::vector<std::uint8_t> bytes =
            encodeFrame(type, payload);
        FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        const std::optional<Frame> frame = decoder.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, type);
        EXPECT_EQ(frame->payload, payload);
    }
}

TEST(WireTest, TelemetryMessageRoundTrip)
{
    TelemetryMsg msg;
    msg.pid = 31337;
    obs::SpanRecord span;
    span.t0Ns = 123456789;
    span.durNs = 987;
    span.category = obs::SpanCategory::Dist;
    std::strcpy(span.name, "dispatch");
    span.arg0 = 7;
    span.arg1 = 48;
    span.tid = 3;
    msg.spans.push_back(span);
    span.category = obs::SpanCategory::Wire;
    std::strcpy(span.name, "fifteen-chars..");
    span.tid = 4;
    msg.spans.push_back(span);
    msg.metrics.counters["cache.hits"] = 42;
    msg.metrics.gauges["queue.depth"] = 5;
    obs::Histogram h;
    h.observe(0);
    h.observe(300);
    h.observe(~std::uint64_t{0});
    msg.metrics.histograms["latency.ns"] = h.snapshot();

    const TelemetryMsg back = decodeTelemetry(encodeTelemetry(msg));
    EXPECT_EQ(back.pid, 31337);
    ASSERT_EQ(back.spans.size(), 2u);
    EXPECT_EQ(back.spans[0].t0Ns, 123456789u);
    EXPECT_EQ(back.spans[0].durNs, 987u);
    EXPECT_EQ(back.spans[0].category, obs::SpanCategory::Dist);
    EXPECT_STREQ(back.spans[0].name, "dispatch");
    EXPECT_EQ(back.spans[0].arg0, 7u);
    EXPECT_EQ(back.spans[0].arg1, 48u);
    EXPECT_EQ(back.spans[0].tid, 3u);
    // The span's pid is stamped from the message, not the record.
    EXPECT_EQ(back.spans[0].pid, 31337);
    EXPECT_STREQ(back.spans[1].name, "fifteen-chars..");
    EXPECT_EQ(back.metrics.counters.at("cache.hits"), 42u);
    EXPECT_EQ(back.metrics.gauges.at("queue.depth"), 5u);
    const obs::HistogramSnapshot hist =
        back.metrics.histograms.at("latency.ns");
    EXPECT_EQ(hist.count, 3u);
    EXPECT_EQ(hist.sum, h.snapshot().sum);
    EXPECT_EQ(hist.buckets[0], 1u);
    EXPECT_EQ(hist.buckets[obs::histogramBucketOf(300)], 1u);
    EXPECT_EQ(hist.buckets[64], 1u);

    // An empty telemetry message survives too (heartbeat cadence
    // with nothing new to report).
    TelemetryMsg empty;
    empty.pid = 1;
    const TelemetryMsg empty_back =
        decodeTelemetry(encodeTelemetry(empty));
    EXPECT_EQ(empty_back.pid, 1);
    EXPECT_TRUE(empty_back.spans.empty());
    EXPECT_TRUE(empty_back.metrics.empty());
}

TEST(WireTest, TelemetryDecoderRejectsMalformedPayloads)
{
    TelemetryMsg msg;
    msg.pid = 7;
    obs::SpanRecord span;
    std::strcpy(span.name, "x");
    msg.spans.push_back(span);
    const std::vector<std::uint8_t> good = encodeTelemetry(msg);

    // Truncation never yields a message.
    for (std::size_t keep = 0; keep < good.size(); ++keep) {
        const std::vector<std::uint8_t> cut(good.begin(),
                                            good.begin() + keep);
        EXPECT_THROW(decodeTelemetry(cut), WireError) << keep;
    }
    // Trailing garbage is rejected (expectEnd).
    std::vector<std::uint8_t> extra = good;
    extra.push_back(0);
    EXPECT_THROW(decodeTelemetry(extra), WireError);
    // An implausible span count is rejected before allocation: bytes
    // 4..7 hold the LE span count.
    std::vector<std::uint8_t> huge = good;
    huge[4] = huge[5] = huge[6] = huge[7] = 0xFF;
    EXPECT_THROW(decodeTelemetry(huge), WireError);
    // An unknown span category is rejected. The category byte sits
    // right after pid (i32) + count (u32) + t0 (u64) + dur (u64).
    std::vector<std::uint8_t> badcat = good;
    badcat[4 + 4 + 8 + 8] = 0xEE;
    EXPECT_THROW(decodeTelemetry(badcat), WireError);
}

TEST(WireTest, MetricsRequestAndResponseRoundTrip)
{
    MetricsRequestMsg req;
    req.tag = 0xDEADBEEFCAFEF00Dull;
    EXPECT_EQ(decodeMetricsRequest(encodeMetricsRequest(req)).tag,
              req.tag);

    MetricsResponseMsg resp;
    resp.tag = 99;
    resp.text = "# TYPE oscar_serve_requests_total counter\n"
                "oscar_serve_requests_total 12\n";
    const MetricsResponseMsg back =
        decodeMetricsResponse(encodeMetricsResponse(resp));
    EXPECT_EQ(back.tag, 99u);
    EXPECT_EQ(back.text, resp.text);

    std::vector<std::uint8_t> extra = encodeMetricsRequest(req);
    extra.push_back(0);
    EXPECT_THROW(decodeMetricsRequest(extra), WireError);
}

TEST(WireTest, HelloAuthTagRoundTripAndKeying)
{
    HelloMsg msg;
    msg.pid = 4321;
    msg.isa = kernels::KernelIsa::Avx2;
    msg.threads = 8;
    msg.authTag = helloAuthTag("fleet-secret", 0xDEADBEEFull, msg);
    EXPECT_NE(msg.authTag, 0u);

    WireWriter w;
    encodeHello(w, msg);
    const HelloMsg back = decodeHello(w.bytes());
    EXPECT_EQ(back.authTag, msg.authTag);

    // The tag keys on the secret, the nonce, and every Hello field,
    // so a replay under a different challenge (or a different fleet)
    // never verifies.
    EXPECT_EQ(helloAuthTag("fleet-secret", 0xDEADBEEFull, msg),
              msg.authTag);
    EXPECT_NE(helloAuthTag("other-secret", 0xDEADBEEFull, msg),
              msg.authTag);
    EXPECT_NE(helloAuthTag("fleet-secret", 0xDEADBEEEull, msg),
              msg.authTag);
    HelloMsg tweaked = msg;
    tweaked.threads = 9;
    EXPECT_NE(helloAuthTag("fleet-secret", 0xDEADBEEFull, tweaked),
              msg.authTag);
}

// ------------------------------------------------- compressed framing

/** A frame whose payload the byte-plane/PackBits codec shrinks. */
std::vector<std::uint8_t>
compressibleFrame(std::vector<std::uint8_t>* payload_out = nullptr)
{
    // A realistic compressible payload: a Task full of repeated point
    // coordinates (f64s with long runs of equal bytes).
    TaskMsg task;
    task.taskId = 11;
    task.costId = 22;
    task.baseOrdinal = 33;
    for (int i = 0; i < 32; ++i)
        task.points.push_back({0.5, 0.5, 0.25, 0.25});
    const std::vector<std::uint8_t> payload = encodeTask(task);
    if (payload_out)
        *payload_out = payload;
    return encodeFrame(FrameType::Task, payload);
}

TEST(WireTest, CompressedFrameShrinksAndRoundTrips)
{
    std::vector<std::uint8_t> payload;
    const std::vector<std::uint8_t> bytes = compressibleFrame(&payload);

    // Smaller on the wire than raw framing, and flagged as such.
    EXPECT_LT(bytes.size(), kFrameHeaderSize + payload.size() + 4);
    EXPECT_NE(bytes[24], 0u); // codec byte: not Raw

    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    const std::optional<Frame> frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::Task);
    EXPECT_EQ(frame->payload, payload); // decompression is bit-exact
    EXPECT_EQ(frame->wireBytes, bytes.size());

    const TaskMsg back = decodeTask(frame->payload);
    EXPECT_EQ(back.points.size(), 32u);
    EXPECT_EQ(back.points[7], (std::vector<double>{0.5, 0.5, 0.25,
                                                   0.25}));
}

TEST(WireTest, CompressedFrameEveryByteFlipIsRejected)
{
    // Flipping ANY bit of a compressed frame -- header, codec byte,
    // stored payload, or CRC trailer -- must never yield a valid
    // frame: either the decoder throws, or it (safely) waits for more
    // bytes that will never arrive (a length-field flip).
    const std::vector<std::uint8_t> bytes = compressibleFrame();
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::vector<std::uint8_t> bad = bytes;
        bad[i] ^= 0x01;
        FrameDecoder decoder;
        decoder.feed(bad.data(), bad.size());
        bool yielded = false;
        try {
            yielded = decoder.next().has_value();
        } catch (const WireError&) {
            // rejected loudly: fine
        }
        EXPECT_FALSE(yielded) << "flipped byte " << i;
    }
}

TEST(WireTest, CompressedFrameEveryTruncationIsRejected)
{
    const std::vector<std::uint8_t> bytes = compressibleFrame();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        FrameDecoder decoder;
        decoder.feed(bytes.data(), len);
        std::optional<Frame> frame;
        EXPECT_NO_THROW(frame = decoder.next()) << "prefix " << len;
        EXPECT_FALSE(frame.has_value()) << "prefix " << len;
    }
}

TEST(WireTest, IncompressiblePayloadStaysRaw)
{
    // High-entropy payloads must ride unchanged (codec byte 0) with
    // identical stored and raw lengths -- compression is smallest-of,
    // never an expansion.
    Rng rng(17);
    std::vector<std::uint8_t> payload(256);
    for (std::uint8_t& b : payload)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    const std::vector<std::uint8_t> bytes =
        encodeFrame(FrameType::Request, payload);
    EXPECT_EQ(bytes.size(), kFrameHeaderSize + payload.size() + 4);
    EXPECT_EQ(bytes[24], 0u); // Raw
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    const std::optional<Frame> frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload, payload);
    EXPECT_EQ(frame->wireBytes, bytes.size());
}

} // namespace
} // namespace dist
} // namespace oscar
