/**
 * @file
 * Pipeline workloads: Oscar::reconstruct on the paper's Table-1 grids.
 *
 * Untraced runs time whole reconstructions (tracing off) and gate their
 * outputs. Traced runs call each layer's public function outside in --
 * chooseSampleIndices + prefixSubmissionOrder, gatherCost,
 * csSolveFolded -- under the benchmark's own spans, and check that the
 * layers reproduce Oscar::reconstruct bit for bit and add up to its
 * wall time, traced and untraced.
 */
#include <array>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "src/ansatz/qaoa.h"
#include "src/backend/analytic_qaoa.h"
#include "src/backend/statevector_backend.h"
#include "src/backend/trajectory_backend.h"
#include "src/core/oscar.h"
#include "src/cs/dct.h"
#include "src/dist/process_pool.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/landscape/metrics.h"
#include "src/landscape/sampler.h"
#include "src/quantum/noise_model.h"
#include "workloads.h"

namespace e2e {

using namespace oscar;

const std::vector<WorkloadInfo>&
workloads()
{
    static const std::vector<WorkloadInfo> all = {
        {"p2_sv_barrier",
         "Table-1 p=2 12^2x15^2 grid, 12-qubit statevector, FISTA, "
         "barrier: the CS solve is over 95% of wall time, so cs/ changes "
         "show here"},
        {"p1_fleet_barrier",
         "Table-1 p=1 50x100 grid, 18 qubits on nproc single-threaded "
         "worker processes: kernels, prefix cache and dist/ are about "
         "90% of wall time"},
        {"p1_noisy_stream",
         "p=1 50x100, 12-qubit trajectory noise, 4 streaming shards: "
         "execution overlaps warm-started partial solves on the noisy "
         "path"},
        {"serve_mix",
         "in-process daemon, closed loop, 95% store hits and 5% fresh "
         "computes with store puts: the only workload for serve/ and "
         "store/"},
    };
    return all;
}

Graph
problemGraph(int qubits)
{
    Rng rng(7);
    return random3RegularGraph(qubits, rng);
}

std::uint64_t
sampleSeed(std::uint64_t run_seed, std::uint64_t k)
{
    return mixSeed(run_seed, 2 + k);
}

namespace {

/** Store-load time after each reconstruction, as a share of its time. */
constexpr double kLoadShare = 0.15;

enum class Backend { Statevector, Trajectory };
enum class Exec { Threads, Fleet, Serial };

/** One pipeline configuration; the seed supplies graph and samples. */
struct PipelineSpec
{
    int qubits;
    int depth;
    Backend backend;
    Exec exec;
    /** StreamingOptions::shards (1 = barrier). */
    std::size_t shards;
    /** Reconstruction accuracy gate against the full-grid reference. */
    double nrmseBound;
    /** Sample sets per run, drawn from the seed (see measureUntraced). */
    std::size_t sampleSets;
};

PipelineSpec
specFor(const std::string& name)
{
    if (name == "p2_sv_barrier")
        return {12, 2, Backend::Statevector, Exec::Threads, 1, 0.15, 3};
    if (name == "p1_fleet_barrier")
        return {18, 1, Backend::Statevector, Exec::Fleet, 1, 0.10, 20};
    if (name == "p1_noisy_stream")
        return {12, 1, Backend::Trajectory, Exec::Threads, 4, 0.15, 6};
    if (name == "serve_request")
        return {12, 1, Backend::Statevector, Exec::Serial, 1, 0.10, 1};
    throw std::invalid_argument("unknown pipeline workload " + name);
}

/** Everything one pipeline run holds; built from the seed. */
struct PipelineCase
{
    PipelineSpec spec;
    GridSpec grid;
    Graph graph;
    OscarOptions options;
    std::uint64_t costSeed = 0;
    std::unique_ptr<CostFunction> cost;
    std::unique_ptr<ExecutionEngine> owned;

    ExecutionEngine* engine() const { return owned.get(); }
    std::size_t numSamples() const
    {
        return sampleCount(grid, options.samplingFraction);
    }
};

std::unique_ptr<CostFunction>
makeCost(const PipelineCase& pc)
{
    Circuit circuit = qaoaCircuit(pc.graph, pc.spec.depth);
    PauliSum hamiltonian = maxcutHamiltonian(pc.graph);
    if (pc.spec.backend == Backend::Trajectory)
        return std::make_unique<TrajectoryCost>(
            std::move(circuit), std::move(hamiltonian),
            NoiseModel::depolarizing(1e-3, 1e-2), 32, pc.costSeed);
    return std::make_unique<StatevectorCost>(std::move(circuit),
                                             std::move(hamiltonian));
}

/**
 * The execution engine of the spec. Threads: an nproc-thread pool.
 * Fleet: nproc single-threaded worker processes on the default
 * transport behind a one-thread coordinator. Serial: none (the shared
 * serial engine, as the daemon's jobs use).
 */
std::unique_ptr<ExecutionEngine>
makeEngine(const PipelineSpec& spec)
{
    switch (spec.exec) {
      case Exec::Threads:
        return std::make_unique<ExecutionEngine>(benchProcs());
      case Exec::Fleet: {
        EngineOptions options;
        options.numThreads = 1;
        options.dist.numWorkers = benchProcs();
        options.dist.threadsPerWorker = 1;
        return std::make_unique<ExecutionEngine>(options);
      }
      case Exec::Serial:
        break;
    }
    return nullptr;
}

PipelineCase
makeCase(const std::string& name, std::uint64_t seed)
{
    PipelineCase pc;
    pc.spec = specFor(name);
    pc.grid = pc.spec.depth == 2 ? GridSpec::qaoaP2() : GridSpec::qaoaP1();
    pc.graph = problemGraph(pc.spec.qubits);
    pc.options.samplingFraction = 0.1;
    pc.options.seed = sampleSeed(seed, 0);
    pc.options.numThreads = pc.spec.exec == Exec::Threads ? benchProcs() : 1;
    pc.options.streaming.shards = pc.spec.shards;
    pc.costSeed = mixSeed(seed, 1);
    return pc;
}

/**
 * Set-up: cost construction (circuit compile) and engine or fleet
 * start. A fleet spawns lazily on its first distributed batch, so a
 * small warm-up batch forces spawn and handshake into the set-up.
 */
void
setUp(PipelineCase& pc, Tally& tally)
{
    pc.owned.reset();
    pc.cost = makeCost(pc);
    pc.owned = makeEngine(pc.spec);
    if (pc.spec.exec == Exec::Fleet) {
        const std::size_t n = 8 * static_cast<std::size_t>(benchProcs());
        pc.owned->evaluateGenerated(*pc.cost, n, [&pc](std::size_t i) {
            return pc.grid.pointAt(i);
        });
        const dist::ProcessPool* pool = pc.owned->processPool();
        tally.check(pool && pool->healthy() &&
                        pool->numWorkers() == benchProcs(),
                    "fleet spawned nproc healthy workers");
    }
}

/**
 * Repeat set-up until at least three have run and one second has
 * passed (fast set-ups repeat more), keeping the last; the median is
 * setup_s.
 */
double
timedSetUp(PipelineCase& pc, Tally& tally)
{
    std::vector<double> times;
    const double start = nowS();
    while (times.size() < 3 || (nowS() - start < 1.0 && times.size() < 200)) {
        const double t0 = nowS();
        setUp(pc, tally);
        times.push_back(nowS() - t0);
    }
    return median(times);
}

/**
 * The full-grid reference, outside every timed region. Ideal p=1
 * MaxCut has a closed form (AnalyticQaoaCost), which keeps the 18-qubit
 * reference cheap; the others evaluate every grid point on a fresh
 * cost of the same kind.
 */
std::vector<double>
fullGridReference(const PipelineCase& pc)
{
    std::vector<std::size_t> all(pc.grid.numPoints());
    std::iota(all.begin(), all.end(), std::size_t{0});
    ExecutionEngine engine(benchProcs());
    if (pc.spec.depth == 1 && pc.spec.backend == Backend::Statevector) {
        AnalyticQaoaCost analytic(pc.graph);
        return evaluateGridIndices(pc.grid, analytic, all, &engine);
    }
    std::unique_ptr<CostFunction> cost = makeCost(pc);
    return evaluateGridIndices(pc.grid, *cost, all, &engine);
}

/**
 * The reference must describe the measured cost: ideal statevector
 * samples match it (bit for bit when it was simulated, to 1e-9 against
 * the closed form). Trajectory values depend on the submission ordinal,
 * so only their accuracy gate applies.
 */
void
checkReference(const PipelineCase& pc, const std::vector<double>& reference,
               const SampleSet& samples, Tally& tally)
{
    if (pc.spec.backend != Backend::Statevector)
        return;
    const bool closed_form = pc.spec.depth == 1;
    double worst = 0.0;
    bool bits = true;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double want = reference[samples.indices[i]];
        worst = std::max(worst, std::fabs(want - samples.values[i]));
        bits = bits && want == samples.values[i];
    }
    tally.check(closed_form ? worst <= 1e-9 : bits,
                "sampled values agree with the full-grid reference");
}

/** One Oscar::reconstruct from a fresh ordinal stream. */
OscarResult
reconstructOnce(PipelineCase& pc, ExecutionEngine* engine)
{
    pc.cost->resetQueries();
    return Oscar::reconstruct(pc.grid, *pc.cost, pc.options, engine);
}

/** The fleet's samples must equal in-process execution, bit for bit. */
void
checkFleet(PipelineCase& pc, const OscarResult& result, Tally& tally)
{
    ExecutionEngine local(benchProcs());
    std::unique_ptr<CostFunction> cost = makeCost(pc);
    const SampleSet in_process =
        gatherCost(pc.grid, *cost, result.samples.indices, &local);
    tally.check(bitIdentical(in_process.values, result.samples.values),
                "fleet samples are bit-identical to in-process execution");
}

void
measureUntraced(PipelineCase& pc, const std::string& name, const Args& args,
                Tally& tally, Report& report)
{
    const double setup_s = timedSetUp(pc, tally);
    const std::size_t n = pc.numSamples();
    const std::size_t sets = pc.spec.sampleSets;
    const dist::ProcessPool* pool =
        pc.engine() ? pc.engine()->processPool() : nullptr;

    // The run reconstructs a fixed pool of sample sets drawn from the
    // seed, in whole rounds: FISTA stops on convergence, so iterations
    // and NRMSE depend on the samples. Whole rounds keep every set's
    // weight in reconstruct_s equal, and nrmse covers exactly the pool,
    // so it is the same on any host. Another round runs while it fits
    // in --seconds; its landscapes must repeat the first round's.
    //
    // The warm path of the landscape -- LandscapeStore::load, the call a
    // repeated request is answered from -- is sampled in short bursts
    // after every reconstruction, so its latencies span the whole run
    // like the reconstructions do.
    std::vector<double> times;
    std::vector<OscarResult> results;
    std::optional<StoreProbe> probe;
    std::size_t rounds = 0;
    const double start = nowS();
    double round_s = 0.0;
    do {
        const double round0 = nowS();
        for (std::size_t k = 0; k < sets; ++k) {
            pc.options.seed = sampleSeed(args.seed, k);
            const double t0 = nowS();
            OscarResult result = reconstructOnce(pc, pc.engine());
            times.push_back(nowS() - t0);
            if (pool)
                tally.check(result.execution.pointsRemote == n,
                            name + ": every sample ran on the fleet");
            if (rounds == 0)
                results.push_back(std::move(result));
            else
                tally.check(bitIdentical(result.reconstructed.values().flat(),
                                         results[k].reconstructed.values().flat()),
                            name + ": a repeated sample set is bit-identical");
            if (!probe)
                probe.emplace(args, storedLandscape(
                                        pc.grid, results[0].samples.indices,
                                        results[0].samples.values,
                                        results[0].reconstructed.values().flat(),
                                        pc.options.samplingFraction,
                                        pc.options.seed));
            probe->load(0, kLoadShare * times.back());
        }
        ++rounds;
        round_s = nowS() - round0;
    } while (nowS() - start + round_s <= args.seconds);
    const double peak_rss_mb = peakRssMb(pool ? pool->workerPids()
                                              : std::vector<int>{});
    // Enough loads that the p99 in the report has ten beyond it.
    if (probe->loads().size() < 1100)
        probe->load(1100 - probe->loads().size(), 0.0);
    const std::vector<double>& loads = probe->loads();
    tally.check(probe->loadsIdentical(),
                name + ": store loads return the landscape bit for bit");

    // Determinism within the run, when no second round checked it.
    if (rounds == 1) {
        pc.options.seed = sampleSeed(args.seed, 0);
        const OscarResult again = reconstructOnce(pc, pc.engine());
        tally.check(bitIdentical(again.reconstructed.values().flat(),
                                 results[0].reconstructed.values().flat()),
                    name + ": a repeated sample set is bit-identical");
    }

    const std::vector<double> reference = fullGridReference(pc);
    const NdArray truth(pc.grid.shape(), reference);
    std::vector<double> errs;
    for (std::size_t k = 0; k < results.size(); ++k) {
        errs.push_back(nrmse(truth, results[k].reconstructed.values()));
        tally.check(errs.back() <= pc.spec.nrmseBound,
                    name + ": nrmse within its bound");
        tally.check(digestRepeats(args, "landscape" + std::to_string(k),
                                  digestBits(results[k]
                                                 .reconstructed.values()
                                                 .flat())),
                    name + ": landscape digest repeats across runs");
        checkReference(pc, reference, results[k].samples, tally);
    }
    const double nrmse_med = median(errs);
    tally.check(digestRepeats(args, "nrmse", digestBits({nrmse_med})),
                name + ": nrmse repeats across runs");
    if (pool)
        checkFleet(pc, results[0], tally);

    report.add("setup_s", setup_s, "s");
    report.add("reconstruct_s", median(times), "s");
    report.add("nrmse", nrmse_med, "ratio");
    report.add("peak_rss_mb", peak_rss_mb, "MiB");
    // Stand-ins: the result line must carry every end-to-end metric,
    // and a pipeline serves nothing. serve_rps is landscapes per second
    // of reconstruction; hit_p50_ms is a store load of the landscape,
    // what answering a repeated request would cost on this grid.
    const double loop_s = std::accumulate(times.begin(), times.end(), 0.0);
    report.add("serve_rps", static_cast<double>(times.size()) / loop_s, "1/s");
    report.add("hit_p50_ms", 1e3 * median(loads), "ms");
    report.note("reconstruct_s_each", jsonArray(times));
    report.note("nrmse_each", jsonArray(errs));
    report.note("rounds", std::to_string(rounds));
    report.note("hit_loads", std::to_string(loads.size()));
    report.note("hit_p99_ms",
                std::to_string(1e3 * percentileWithTail(loads, 0.99).value_or(0.0)));
}

} // namespace

store::StoredLandscape
traceLayers(const std::string& pipeline, const Args& args, double seconds,
            Tally& tally, Report& report, SpanLog& log, bool category_rows)
{
    PipelineCase pc = makeCase(pipeline, args.seed);
    const bool barrier = pc.spec.shards == 1;
    const bool fleet = pc.spec.exec == Exec::Fleet;
    const std::size_t n = pc.numSamples();

    // Program tracing is switched in this process only, so the fleet's
    // spans are the coordinator's dispatch, steal and wire spans. Workers
    // trace only when spawned with OSCAR_TRACE set, and such a fleet
    // lost all its workers in traced 18-qubit runs.
    setUp(pc, tally);

    std::vector<double> untraced_s, traced_s, sample_s, exec_s, solve_s;
    std::vector<double> remote, stolen, requeued, pipelined, raw, packed;
    std::map<std::string, double> cat_s;
    std::vector<obs::SpanRecord> last_program_spans;
    KernelStats kernel;
    std::size_t iterations = 0;
    std::vector<std::size_t> indices;
    SampleSet samples;
    OscarResult plain, traced;
    const auto untraced_rep = [&] {
        const double t0 = nowS();
        plain = reconstructOnce(pc, pc.engine());
        untraced_s.push_back(nowS() - t0);
    };
    const auto traced_rep = [&] {
        obs::setTracing(true);
        const std::uint64_t window0 = obs::Tracer::nowNs();
        {
            const auto root = log.scope("oscar.reconstruct");
            const double t0 = nowS();
            traced = reconstructOnce(pc, pc.engine());
            traced_s.push_back(nowS() - t0);
        }
        last_program_spans = programSpans(window0, obs::Tracer::nowNs());
        for (const auto& [cat, secs] : categorySelfSeconds(last_program_spans))
            cat_s[cat] += secs;
        obs::setTracing(false);
    };
    // Outside in: the barrier pipeline's three layers, under the
    // benchmark's own spans only, like the untraced reps.
    const auto layers_rep = [&] {
        SpanLog rep;
        CsSolveResult solve;
        {
            const auto root = rep.scope("core.reconstruct");
            pc.cost->resetQueries();
            pc.cost->configureKernel(pc.options.kernel);
            {
                const auto s = rep.scope("landscape.sample");
                Rng rng(pc.options.seed);
                indices = chooseSampleIndices(
                    pc.grid.numPoints(), pc.options.samplingFraction, rng);
                prefixSubmissionOrder(pc.grid, *pc.cost, indices);
            }
            {
                const auto s = rep.scope("backend.exec");
                samples = gatherCost(pc.grid, *pc.cost, indices, pc.engine());
            }
            {
                const auto s = rep.scope("cs.solve");
                solve = csSolveFolded(pc.grid.shape(), samples.indices,
                                      samples.values, pc.options.cs);
            }
        }
        iterations = solve.iterations;
        const bool same =
            barrier ? bitIdentical(solve.values.flat(),
                                   traced.reconstructed.values().flat())
                    : samples.indices == traced.samples.indices &&
                          bitIdentical(samples.values, traced.samples.values);
        tally.check(same && bitIdentical(plain.reconstructed.values().flat(),
                                         traced.reconstructed.values().flat()),
                    pipeline + (barrier
                                    ? ": layers reproduce Oscar::reconstruct "
                                      "bit for bit"
                                    : ": layers reproduce the streamed "
                                      "samples bit for bit"));

        const auto self = selfSecondsByName(rep.spans());
        sample_s.push_back(self.at("landscape.sample"));
        exec_s.push_back(self.at("backend.exec"));
        solve_s.push_back(self.at("cs.solve"));
        log.append(rep.spans());
        kernel = samples.stats.kernel;
        kernel += samples.stats.remoteKernel;
        remote.push_back(static_cast<double>(samples.stats.pointsRemote));
        stolen.push_back(static_cast<double>(samples.stats.shardsStolen));
        requeued.push_back(static_cast<double>(samples.stats.shardsRequeued));
        pipelined.push_back(static_cast<double>(samples.stats.shardsPipelined));
        raw.push_back(static_cast<double>(samples.stats.bytesOnWireRaw));
        packed.push_back(static_cast<double>(samples.stats.bytesOnWireCompressed));
    };

    // Each round runs the three kinds of rep in an order that rotates
    // from round to round, so that none of them always runs first or
    // right after another; another round runs while it fits in
    // `seconds`. One more untraced rep at the end brackets the others
    // (reps drift in speed over a run, and the p=2 budget allows only
    // one round).
    const std::array<std::function<void()>, 3> kinds = {
        untraced_rep, traced_rep, layers_rep};
    int reps = 0;
    const double start = nowS();
    double round_s = 0.0;
    while (reps < 1 || nowS() - start + round_s <= seconds) {
        const double round0 = nowS();
        for (std::size_t j = 0; j < kinds.size(); ++j)
            kinds[(static_cast<std::size_t>(reps) + j) % kinds.size()]();
        ++reps;
        round_s = nowS() - round0;
    }
    untraced_rep();
    tally.check(bitIdentical(plain.reconstructed.values().flat(),
                             traced.reconstructed.values().flat()),
                pipeline + ": untraced reconstruct is bit-identical to traced");
    const std::uint64_t dropped = obs::Tracer::global().droppedSpans();
    tally.check(dropped == 0, pipeline + ": no program span was dropped");

    // The same samples on the serial engine: the one-thread baseline,
    // and a determinism gate across thread and process counts.
    pc.cost->resetQueries();
    double t0 = nowS();
    const SampleSet serial =
        gatherCost(pc.grid, *pc.cost, indices, &ExecutionEngine::serial());
    const double exec_1t_s = nowS() - t0;
    tally.check(bitIdentical(serial.values, samples.values),
                pipeline + ": serial execution matches the engine bit for bit");

    // One forward + inverse DCT pass on the folded shape.
    const std::vector<std::size_t> folded = csFoldedShape(pc.grid.shape());
    const Dct2d dct(folded[0], folded[1]);
    const NdArray x(folded, traced.reconstructed.values().flat());
    std::vector<double> dct_s;
    const double dct_start = nowS();
    while (dct_s.size() < 5 || (nowS() - dct_start < 0.2 && dct_s.size() < 1000)) {
        t0 = nowS();
        const NdArray back = dct.inverse(dct.forward(x));
        dct_s.push_back(nowS() - t0);
        if (dct_s.size() == 1)
            tally.check(back.flat().size() == x.flat().size(),
                        pipeline + ": DCT pass keeps the folded shape");
    }
    const double r = static_cast<double>(folded[0]);
    const double c = static_cast<double>(folded[1]);
    const double dct_flops = 4.0 * r * c * (r + c);

    const double reconstruct_s = median(untraced_s);
    const double layers_s = median(sample_s) + median(exec_s) + median(solve_s);
    // The layers reconcile with every whole-pipeline rep, untraced and
    // traced: the fleet's reps vary by about 20%, and the pooled median
    // keeps that noise well inside the reconciliation bound.
    std::vector<double> whole = untraced_s;
    whole.insert(whole.end(), traced_s.begin(), traced_s.end());
    const double whole_s = median(whole);
    const double exec_s_med = median(exec_s);
    const double speed = speedup(exec_1t_s, exec_s_med);

    report.add("landscape.sample_s", median(sample_s), "s");
    report.add("backend.exec_s", exec_s_med, "s");
    report.add("backend.points_per_s", static_cast<double>(n) / exec_s_med, "1/s");
    report.add("backend.exec_1t_s", exec_1t_s, "s");
    if (kernel.cacheLookups > 0)
        report.add("backend.prefix_hit_ratio",
                   static_cast<double>(kernel.cacheHits) /
                       static_cast<double>(kernel.cacheLookups),
                   "ratio");
    else
        report.na("backend.prefix_hit_ratio", "ratio");
    report.add("backend.fused_ops_collapsed",
               static_cast<double>(kernel.fusedOpsCollapsed), "count");
    report.add("backend.batched_expectation_points",
               static_cast<double>(kernel.batchedExpectationPoints), "count");

    if (fleet) {
        report.add("dist.speedup_vs_1t", speed, "ratio");
        report.add("dist.efficiency", efficiency(speed, benchProcs()), "ratio");
        report.add("dist.points_remote", median(remote), "count");
        report.add("dist.shards_stolen", median(stolen), "count");
        report.add("dist.shards_requeued", median(requeued), "count");
        report.add("dist.shards_pipelined", median(pipelined), "count");
        report.add("dist.wire_bytes_raw", median(raw), "bytes");
        report.add("dist.wire_bytes_compressed", median(packed), "bytes");
        tally.check(median(remote) == static_cast<double>(n),
                    pipeline + ": every sample ran on the fleet");
    } else {
        for (const char* m : {"dist.speedup_vs_1t", "dist.efficiency"})
            report.na(m, "ratio");
        for (const char* m : {"dist.points_remote", "dist.shards_stolen",
                              "dist.shards_requeued", "dist.shards_pipelined"})
            report.na(m, "count");
        for (const char* m : {"dist.wire_bytes_raw", "dist.wire_bytes_compressed"})
            report.na(m, "bytes");
    }

    report.add("cs.solve_s", median(solve_s), "s");
    report.add("cs.iterations", static_cast<double>(iterations), "count");
    report.add("cs.dct_pass_s", median(dct_s), "s");
    report.add("cs.dct_gflops", dct_flops / median(dct_s) * 1e-9, "GFLOP/s");

    if (barrier) {
        const double glue = whole_s - layers_s;
        report.add("core.glue_s", glue, "s");
        report.na("core.stream_overlap_s", "s");
        // The outside-in layers must account for the wall time.
        constexpr double kReconcileBound = 0.25;
        tally.check(std::fabs(glue) <= kReconcileBound * whole_s,
                    pipeline + ": layer self times add up to "
                               "reconstruct_s within 25%");
    } else {
        report.na("core.glue_s", "s");
        report.add("core.stream_overlap_s",
                   exec_s_med + median(solve_s) - reconstruct_s, "s");
    }

    report.add("obs.trace_overhead", median(traced_s) / reconstruct_s,
               "ratio");
    report.add("obs.dropped_spans", static_cast<double>(dropped), "count");
    for (const char* cat : category_rows ? kCategories : kNoCategories) {
        const auto it = cat_s.find(cat);
        report.add(std::string("cat.") + cat + "_s",
                   it == cat_s.end() ? 0.0 : it->second / reps, "s");
    }

    report.note("reconstruct_s", std::to_string(reconstruct_s));
    report.note("untraced_s_each", jsonArray(untraced_s));
    report.note("traced_reconstruct_s", std::to_string(median(traced_s)));
    report.note("traced_reps", std::to_string(reps));
    const std::string chrome = obs::exportChromeTrace(last_program_spans);
    const std::string path = args.workDir + "/reports/" + args.workload +
                             "-seed" + std::to_string(args.seed) +
                             ".trace.json";
    std::filesystem::create_directories(args.workDir + "/reports");
    std::ofstream(path) << chrome;

    return storedLandscape(pc.grid, traced.samples.indices,
                           traced.samples.values,
                           traced.reconstructed.values().flat(),
                           pc.options.samplingFraction, pc.options.seed);
}

void
addStoreRows(const Args& args, const store::StoredLandscape& entry,
             Tally& tally, Report& report, bool with_counts)
{
    StoreProbe probe(args, entry);
    probe.load(50, 0.0);
    tally.check(probe.loadsIdentical(),
                "store loads return the landscape bit for bit");
    report.add("store.put_s", probe.putS(), "s");
    report.add("store.load_s", median(probe.loads()), "s");
    report.add("store.container_bytes",
               static_cast<double>(probe.containerBytes()), "bytes");
    report.add("store.compression_ratio",
               compressionRatio(probe.rawBytes(), probe.containerBytes()),
               "ratio");
    if (with_counts) {
        const store::StoreStats stats = probe.stats();
        report.add("store.hits", static_cast<double>(stats.hits), "count");
        report.add("store.misses", static_cast<double>(stats.misses), "count");
        report.add("store.puts", static_cast<double>(stats.puts), "count");
    }
}

void
runPipelineWorkload(const Args& args, Tally& tally, Report& report,
                    SpanLog& log)
{
    if (!args.trace) {
        PipelineCase pc = makeCase(args.workload, args.seed);
        measureUntraced(pc, args.workload, args, tally, report);
        return;
    }
    // Twice the untraced budget: on the fleet, reconciling the layers
    // with the whole pipeline needs about nine rounds.
    const store::StoredLandscape entry =
        traceLayers(args.workload, args, 2 * args.seconds, tally, report, log);
    addStoreRows(args, entry, tally, report, true);
    report.na("serve.stats_rtt_ms", "ms");
    report.na("serve.hit_p99_ms", "ms");
    report.na("serve.hit_ratio", "ratio");
    for (const char* m : {"serve.evaluations", "serve.dedup_waiters",
                          "serve.errors"})
        report.na(m, "count");
}

} // namespace e2e
