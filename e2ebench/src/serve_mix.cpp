/**
 * @file
 * serve_mix: an in-process ServeServer on a fresh store, driven by a
 * closed loop of client connections. 95% of requests reconstruct a
 * store-resident key (a read), 5% a fresh sample seed (compute, then
 * store put). Every answer is checked bit for bit against a fresh
 * in-process Oscar::reconstruct of the same request.
 */
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "src/ansatz/qaoa.h"
#include "src/backend/analytic_qaoa.h"
#include "src/backend/statevector_backend.h"
#include "src/core/oscar.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/landscape/metrics.h"
#include "src/landscape/sampler.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "workloads.h"

namespace e2e {

using namespace oscar;
using namespace oscar::serve;

namespace {

constexpr std::size_t kWarmKeys = 6;
/** One request in every kMissEvery per client is a fresh computation. */
constexpr std::uint64_t kMissEvery = 20;
/**
 * Each client's first kScoredMisses fresh computations enter nrmse with
 * the warm keys: their seeds follow from the run's seed alone, while how
 * many misses a run makes follows from throughput.
 */
constexpr std::size_t kScoredMisses = 40;
constexpr double kNrmseBound = 0.10;

/** The request family: one 12-qubit p=1 MaxCut QAOA on the 50x100 grid. */
struct ServeCase
{
    explicit ServeCase(std::uint64_t seed) : seed(seed)
    {
        const Graph graph = problemGraph(12);
        base.kind = RequestKind::Reconstruct;
        base.cost.circuit = qaoaCircuit(graph, 1);
        base.cost.hamiltonian = maxcutHamiltonian(graph);
        base.grid = GridSpec::qaoaP1();
        base.samplingFraction = 0.1;
        for (std::size_t k = 0; k < kWarmKeys; ++k)
            warmSeeds.push_back(mixSeed(seed, 100 + k));

        std::vector<std::size_t> all(base.grid.numPoints());
        for (std::size_t i = 0; i < all.size(); ++i)
            all[i] = i;
        AnalyticQaoaCost analytic(graph);
        reference = evaluateGridIndices(base.grid, analytic, all);
    }

    RequestMsg
    request(std::uint64_t sample_seed) const
    {
        RequestMsg msg = base;
        msg.sampleSeed = sample_seed;
        return msg;
    }

    /** What the daemon must answer: a fresh in-process reconstruction. */
    std::vector<double>
    fresh(std::uint64_t sample_seed) const
    {
        RequestMsg req = request(sample_seed);
        StatevectorCost cost(std::move(req.cost.circuit),
                             std::move(req.cost.hamiltonian));
        OscarOptions opts;
        opts.samplingFraction = req.samplingFraction;
        opts.seed = req.sampleSeed;
        opts.kernel = req.cost.kernel;
        ExecutionEngine serial(1);
        return Oscar::reconstruct(req.grid, cost, opts, &serial)
            .reconstructed.values()
            .flat();
    }

    std::uint64_t seed;
    RequestMsg base;
    std::vector<std::uint64_t> warmSeeds;
    std::vector<double> reference;
};

/**
 * Client connections, and daemon job threads: half of nproc each, so
 * clients and single-threaded jobs together stay within nproc and a
 * client's hit never queues behind another client's fresh computation.
 */
int
numClients()
{
    return std::max(1, benchProcs() / 2);
}

/**
 * A daemon on a fresh store with numClients() single-threaded job
 * threads, pre-warmed with the warm keys through its own compute path,
 * plus numClients() connected clients.
 */
struct Daemon
{
    Daemon(const Args& args, const ServeCase& sc,
           const std::vector<std::vector<double>>& expected, Tally& tally)
        : dir(args, "serve")
    {
        ServeOptions options;
        options.socketPath = dir.path + "/s.sock";
        options.storeDir = dir.path + "/store";
        options.jobThreads = numClients();
        options.oscar.numThreads = 1;
        server = std::make_unique<ServeServer>(options);
        thread = std::thread([this] { server->run(); });
        try {
            for (int c = 0; c < numClients(); ++c)
                clients.push_back(
                    std::make_unique<ServeClient>(options.socketPath));
            for (std::size_t k = 0; k < sc.warmSeeds.size(); ++k) {
                const ResponseMsg r =
                    clients[0]->call(sc.request(sc.warmSeeds[k]));
                tally.check(
                    r.status == ResponseStatus::Ok &&
                        bitIdentical(r.landscape.reconstructed, expected[k]),
                    "serve_mix: pre-warm answer equals a fresh reconstruct");
            }
        } catch (...) {
            shutDown();
            throw;
        }
    }

    ~Daemon() { shutDown(); }

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    void
    shutDown()
    {
        clients.clear();
        server->stop();
        thread.join();
    }

    ScratchDir dir;
    std::unique_ptr<ServeServer> server;
    std::thread thread;
    std::vector<std::unique_ptr<ServeClient>> clients;
};

struct LoopResult
{
    std::vector<double> hitS;
    std::vector<double> missS;
    /** NRMSE of every computed answer against the full-grid reference. */
    std::vector<double> missNrmse;
    /** The same, for each client's first kScoredMisses answers only. */
    std::vector<double> scoredNrmse;
    std::size_t responses = 0;
    double seconds = 0.0;
};

/**
 * The closed loop: each client sends its next request when the previous
 * answer arrives, until `seconds` have passed, at least `min_hits` hits
 * were answered and the client made its kScoredMisses misses. Hits are
 * checked on arrival; computed answers are checked afterwards against
 * fresh reconstructions on nproc threads.
 */
LoopResult
clientLoop(const ServeCase& sc, Daemon& daemon,
           const std::vector<std::vector<double>>& expected, double seconds,
           std::size_t min_hits, Tally& tally)
{
    struct Miss
    {
        std::uint64_t seed;
        std::vector<double> values;
        bool scored;
    };
    std::mutex m;
    LoopResult out;
    std::vector<Miss> misses;
    std::atomic<std::size_t> hits{0};
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> failed{0};
    const int n = numClients();
    const double start = nowS();
    const double hard_stop = start + std::max(3.0 * seconds, seconds + 30.0);

    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) {
        threads.emplace_back([&, c] {
            ServeClient& client = *daemon.clients[static_cast<std::size_t>(c)];
            Rng rng(mixSeed(sc.seed, 200 + static_cast<std::uint64_t>(c)));
            std::uint64_t sent = 0;
            std::uint64_t miss_slot = rng.uniformInt(kMissEvery);
            std::vector<double> hit_s, miss_s;
            std::vector<Miss> my_misses;
            std::uint64_t my_failed = 0, my_attempted = 0;
            for (;;) {
                const double now = nowS();
                if (now >= hard_stop ||
                    (now - start >= seconds && hits.load() >= min_hits &&
                     my_misses.size() >= kScoredMisses))
                    break;
                // Exactly one miss per block of kMissEvery requests, at a
                // seeded position, so every run has the same mix.
                const bool miss = sent % kMissEvery == miss_slot;
                if (++sent % kMissEvery == 0)
                    miss_slot = rng.uniformInt(kMissEvery);
                const std::size_t warm = rng.uniformInt(kWarmKeys);
                const std::uint64_t seed =
                    miss ? mixSeed(sc.seed, 1000000 + static_cast<std::uint64_t>(c) +
                                                static_cast<std::uint64_t>(n) * sent)
                         : sc.warmSeeds[warm];
                RequestMsg req = sc.request(seed);
                ResponseMsg r;
                const double t0 = nowS();
                bool ok = true;
                try {
                    r = client.call(std::move(req));
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "e2ebench: serve call: %s\n", e.what());
                    ok = false;
                }
                const double dt = nowS() - t0;
                my_attempted++;
                ok = ok && r.status == ResponseStatus::Ok;
                if (ok && miss) {
                    ok = r.servedFrom == ServedFrom::Computed;
                    miss_s.push_back(dt);
                    my_misses.push_back({seed, std::move(r.landscape.reconstructed),
                                         my_misses.size() < kScoredMisses});
                } else if (ok) {
                    ok = r.servedFrom == ServedFrom::Store &&
                         bitIdentical(r.landscape.reconstructed, expected[warm]);
                    hit_s.push_back(dt);
                    hits.fetch_add(1);
                }
                my_failed += ok ? 0 : 1;
            }
            std::lock_guard<std::mutex> lock(m);
            out.hitS.insert(out.hitS.end(), hit_s.begin(), hit_s.end());
            out.missS.insert(out.missS.end(), miss_s.begin(), miss_s.end());
            for (Miss& x : my_misses)
                misses.push_back(std::move(x));
            attempted += my_attempted;
            failed += my_failed;
        });
    }
    for (std::thread& t : threads)
        t.join();
    out.seconds = nowS() - start;
    out.responses = static_cast<std::size_t>(attempted.load());
    tally.attempted += attempted.load();
    tally.failed += failed.load();
    if (failed.load() > 0)
        tally.failures.push_back("serve_mix: request errors or wrong answers");

    // Computed answers against fresh reconstructions, nproc at a time.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> wrong{0};
    out.missNrmse.resize(misses.size());
    const NdArray truth(sc.base.grid.shape(), sc.reference);
    std::vector<std::thread> checkers;
    for (int t = 0; t < benchProcs(); ++t) {
        checkers.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < misses.size();) {
                bool same = false;
                try {
                    same = bitIdentical(sc.fresh(misses[i].seed),
                                        misses[i].values);
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "e2ebench: fresh: %s\n", e.what());
                }
                if (!same)
                    wrong.fetch_add(1);
                out.missNrmse[i] = nrmse(
                    truth, NdArray(sc.base.grid.shape(), misses[i].values));
            }
        });
    }
    for (std::thread& t : checkers)
        t.join();
    tally.check(wrong.load() == 0,
                "serve_mix: every computed answer equals a fresh reconstruct");
    for (std::size_t i = 0; i < misses.size(); ++i)
        if (misses[i].scored)
            out.scoredNrmse.push_back(out.missNrmse[i]);
    tally.check(out.scoredNrmse.size() ==
                    kScoredMisses * static_cast<std::size_t>(n),
                "serve_mix: every client made its scored misses");
    return out;
}

ServeCounters
statsOf(ServeClient& client)
{
    RequestMsg stats;
    stats.kind = RequestKind::Stats;
    return client.call(stats).counters;
}

} // namespace

void
runServeMix(const Args& args, Tally& tally, Report& report, SpanLog& log)
{
    const ServeCase sc(args.seed);
    std::vector<std::vector<double>> expected;
    std::vector<double> errs;
    for (std::uint64_t s : sc.warmSeeds) {
        expected.push_back(sc.fresh(s));
        errs.push_back(nrmse(NdArray(sc.base.grid.shape(), sc.reference),
                             NdArray(sc.base.grid.shape(), expected.back())));
    }

    tally.check(*std::max_element(errs.begin(), errs.end()) <= kNrmseBound,
                "serve_mix: warm keys' nrmse within its bound");

    if (!args.trace) {
        // Set-up: daemon start, store pre-warm, client connections.
        std::unique_ptr<Daemon> daemon;
        std::vector<double> setups;
        for (int k = 0; k < 3; ++k) {
            daemon.reset();
            const double t0 = nowS();
            daemon = std::make_unique<Daemon>(args, sc, expected, tally);
            setups.push_back(nowS() - t0);
        }
        const LoopResult loop =
            clientLoop(sc, *daemon, expected, args.seconds, 1000, tally);
        const double peak_rss_mb = peakRssMb();
        // Every landscape served is within the bound; nrmse is over the
        // warm keys and the scored misses, which the seed fixes.
        tally.check(loop.missNrmse.empty() ||
                        *std::max_element(loop.missNrmse.begin(),
                                          loop.missNrmse.end()) <= kNrmseBound,
                    "serve_mix: every served landscape's nrmse within its "
                    "bound");
        errs.insert(errs.end(), loop.scoredNrmse.begin(),
                    loop.scoredNrmse.end());
        tally.check(digestRepeats(args, "nrmse", digestBits({median(errs)})),
                    "serve_mix: nrmse repeats across runs");

        report.add("setup_s", median(setups), "s");
        report.add("reconstruct_s", median(loop.missS), "s");
        report.add("nrmse", median(errs), "ratio");
        report.add("peak_rss_mb", peak_rss_mb, "MiB");
        report.add("serve_rps",
                   static_cast<double>(loop.responses) / loop.seconds, "1/s");
        report.add("hit_p50_ms", 1e3 * median(loop.hitS), "ms");
        // The hit tail is reported here and, traced, as serve.hit_p99_ms:
        // it swings with the host's thread wake-up latency far more than
        // an end-to-end bound allows.
        std::string tail = "{";
        for (double q : {0.5, 0.9, 0.95, 0.99, 0.999})
            tail += (q > 0.5 ? ", \"p" : "\"p") + std::to_string(q).substr(2, 3) +
                    "\": " + std::to_string(1e3 * percentileWithTail(loop.hitS, q, 0).value_or(0.0));
        report.note("hit_ms", tail + "}");
        report.note("samples",
                    "{\"hits\": " + std::to_string(loop.hitS.size()) +
                        ", \"misses\": " + std::to_string(loop.missS.size()) +
                        ", \"clients\": " + std::to_string(numClients()) + "}");
        return;
    }

    // Traced: half the time on the daemon under program tracing, half
    // on the request's pipeline layers.
    ServeCounters counters;
    std::vector<std::pair<std::string, double>> categories;
    std::vector<double> rtt;
    std::optional<double> hit_p99;
    {
        Daemon daemon(args, sc, expected, tally);
        obs::setTracing(true);
        const std::uint64_t window0 = obs::Tracer::nowNs();
        {
            const auto span = log.scope("serve.loop");
            hit_p99 = percentileWithTail(
                clientLoop(sc, daemon, expected, 0.5 * args.seconds, 1000,
                           tally)
                    .hitS,
                0.99);
        }
        tally.check(hit_p99.has_value(),
                    "serve_mix: p99 has ten hits beyond it");
        obs::setTracing(false);
        categories =
            categorySelfSeconds(programSpans(window0, obs::Tracer::nowNs()));
        for (int i = 0; i < 200; ++i) {
            const double t0 = nowS();
            counters = statsOf(*daemon.clients[0]);
            rtt.push_back(nowS() - t0);
        }
    }

    const store::StoredLandscape entry = traceLayers(
        "serve_request", args, 0.5 * args.seconds, tally, report, log, false);
    for (const char* cat : kCategories) {
        double secs = 0.0;
        for (const auto& [name, s] : categories)
            secs += name == cat ? s : 0.0;
        report.add(std::string("cat.") + cat + "_s", secs, "s");
    }

    addStoreRows(args, entry, tally, report, false);
    report.add("store.hits", static_cast<double>(counters.store.hits), "count");
    report.add("store.misses", static_cast<double>(counters.store.misses),
               "count");
    report.add("store.puts", static_cast<double>(counters.store.puts), "count");

    const double answered = static_cast<double>(
        counters.storeHits + counters.evaluations + counters.dedupWaiters);
    report.add("serve.stats_rtt_ms", 1e3 * median(rtt), "ms");
    report.add("serve.hit_p99_ms", 1e3 * hit_p99.value_or(0.0), "ms");
    report.add("serve.hit_ratio",
               answered > 0 ? static_cast<double>(counters.storeHits) / answered
                            : 0.0,
               "ratio");
    report.add("serve.evaluations", static_cast<double>(counters.evaluations),
               "count");
    report.add("serve.dedup_waiters",
               static_cast<double>(counters.dedupWaiters), "count");
    report.add("serve.errors", static_cast<double>(counters.errors), "count");
    tally.check(counters.errors == 0, "serve_mix: the daemon sent no errors");
}

} // namespace e2e
