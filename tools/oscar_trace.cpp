/**
 * @file
 * The oscar-trace executable: fleet-wide Chrome trace capture and
 * validation for the observability subsystem (src/obs/).
 *
 *   oscar-trace --out FILE [--qubits N] [--depth 1|2] [--points P]
 *               [--workers W] [--threads T]
 *       Run one traced QAOA MaxCut batch on a loopback-TCP worker
 *       fleet (hybrid: W worker processes x T evaluation threads,
 *       default 2x2) and export the merged coordinator + worker spans
 *       as chrome://tracing JSON to FILE.
 *
 *   oscar-trace --check FILE [--min-pids N]
 *       Validate a trace written by --out: well-formed traceEvents
 *       JSON, every begin has a matching end per (pid, tid), and
 *       spans were recorded by at least N distinct processes
 *       (default 2 -- the coordinator plus one worker). Exit 0 on a
 *       valid trace, 1 with a diagnostic otherwise. CI uses this pair
 *       to prove worker telemetry actually crosses the wire.
 *
 * The fleet secret (OSCAR_DIST_SECRET, or one the pool mints) reaches
 * the spawned workers through the environment -- it never appears on
 * a command line.
 */

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/ansatz/qaoa.h"
#include "src/backend/statevector_backend.h"
#include "src/common/rng.h"
#include "src/dist/process_pool.h"
#include "src/graph/generators.h"
#include "src/hamiltonian/maxcut.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tools/serve_common.h"

namespace {

using namespace oscar;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: oscar-trace --out FILE [--qubits N] [--depth 1|2]\n"
        "                   [--points P] [--workers W] [--threads T]\n"
        "       oscar-trace --check FILE [--min-pids N]\n");
    return 64;
}

// ------------------------------------------------------------- capture

int
runTraced(const std::string& out_path, int qubits, int depth,
          std::size_t num_points, int workers, int threads)
{
    // Tracing and metrics on for this process AND the workers the
    // pool forks (they inherit the environment). The tool's whole
    // purpose is tracing, so it overrides an inherited "0".
    ::setenv("OSCAR_TRACE", "1", 1);
    ::setenv("OSCAR_METRICS", "1", 1);
    obs::applyEnv();

    Rng graph_rng(3);
    const Graph graph = random3RegularGraph(qubits, graph_rng);
    StatevectorCost cost(qaoaCircuit(graph, depth),
                         maxcutHamiltonian(graph));

    Rng point_rng(17);
    std::vector<std::vector<double>> points;
    points.reserve(num_points);
    for (std::size_t i = 0; i < num_points; ++i) {
        std::vector<double> p(
            static_cast<std::size_t>(cost.numParams()));
        for (double& v : p)
            v = point_rng.uniform(0.0, 6.28);
        points.push_back(std::move(p));
    }

    dist::DistOptions options;
    options.numWorkers = workers;
    options.threadsPerWorker = threads;
    dist::ProcessPool pool(options);
    if (!pool.healthy()) {
        std::fprintf(stderr, "oscar-trace: worker fleet failed to start\n");
        return 1;
    }

    BatchHandle handle = pool.submit(cost, std::move(points));
    const std::vector<double> values = handle.get();
    const BatchStats stats = handle.stats();
    std::fprintf(stderr,
                 "oscar-trace: %zu points on %d workers x %d threads "
                 "(%zu remote, %zu joined)\n",
                 values.size(), workers, threads, stats.pointsRemote,
                 stats.workersJoined);

    const std::vector<obs::SpanRecord> spans =
        obs::Tracer::global().collectAll();
    std::map<std::int32_t, std::string> names;
    names[static_cast<std::int32_t>(::getpid())] = "coordinator";
    const std::string json = obs::exportChromeTrace(spans, names);

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << json) || !out.flush()) {
        std::fprintf(stderr, "oscar-trace: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::set<std::int32_t> pids;
    for (const obs::SpanRecord& span : spans)
        pids.insert(span.pid);
    std::printf("oscar-trace: wrote %zu spans from %zu processes to %s\n",
                spans.size(), pids.size(), out_path.c_str());
    return 0;
}

// --------------------------------------------------------------- check

/** One event scraped out of the traceEvents array. */
struct Event
{
    std::string ph;
    long long pid = 0;
    long long tid = 0;
};

/** Extract `"key": <integer>` out of one event object. */
bool
fieldInt(const std::string& obj, const char* key, long long* out)
{
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = obj.find(needle);
    if (at == std::string::npos)
        return false;
    *out = std::strtoll(obj.c_str() + at + needle.size(), nullptr, 10);
    return true;
}

/** Extract `"key": "<string>"` out of one event object. */
bool
fieldStr(const std::string& obj, const char* key, std::string* out)
{
    const std::string needle = std::string("\"") + key + "\": \"";
    const std::size_t at = obj.find(needle);
    if (at == std::string::npos)
        return false;
    const std::size_t from = at + needle.size();
    const std::size_t end = obj.find('"', from);
    if (end == std::string::npos)
        return false;
    *out = obj.substr(from, end - from);
    return true;
}

int
checkTrace(const std::string& path, long long min_pids)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "oscar-trace: cannot read %s\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    if (text.find("\"traceEvents\"") == std::string::npos) {
        std::fprintf(stderr, "oscar-trace: %s: no traceEvents array\n",
                     path.c_str());
        return 1;
    }

    // Walk brace depth: the file is {"traceEvents": [ {event}, ... ]}
    // so every depth-2 object is one event. Events only nest braces
    // for their "args" object, which the depth counter absorbs.
    std::vector<Event> events;
    int depth = 0;
    std::size_t start = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            if (++depth == 2)
                start = i;
        } else if (c == '}') {
            if (depth == 2) {
                const std::string obj =
                    text.substr(start, i - start + 1);
                Event ev;
                if (!fieldStr(obj, "ph", &ev.ph) ||
                    !fieldInt(obj, "pid", &ev.pid) ||
                    !fieldInt(obj, "tid", &ev.tid)) {
                    std::fprintf(stderr,
                                 "oscar-trace: %s: event missing "
                                 "ph/pid/tid: %s\n",
                                 path.c_str(), obj.c_str());
                    return 1;
                }
                events.push_back(std::move(ev));
            }
            if (--depth < 0) {
                std::fprintf(stderr,
                             "oscar-trace: %s: unbalanced braces\n",
                             path.c_str());
                return 1;
            }
        }
    }
    if (depth != 0 || in_string) {
        std::fprintf(stderr, "oscar-trace: %s: truncated JSON\n",
                     path.c_str());
        return 1;
    }

    // Per (pid, tid): every B eventually matched by an E. Events for
    // one span are emitted as an adjacent B/E pair, but spans from
    // different tids interleave freely, so balance is per-lane.
    std::map<std::pair<long long, long long>, long long> open;
    std::set<long long> span_pids;
    long long begins = 0;
    for (const Event& ev : events) {
        const auto lane = std::make_pair(ev.pid, ev.tid);
        if (ev.ph == "B") {
            ++open[lane];
            ++begins;
            span_pids.insert(ev.pid);
        } else if (ev.ph == "E") {
            if (--open[lane] < 0) {
                std::fprintf(stderr,
                             "oscar-trace: %s: E without B on "
                             "pid %lld tid %lld\n",
                             path.c_str(), ev.pid, ev.tid);
                return 1;
            }
        } else if (ev.ph != "M") {
            std::fprintf(stderr, "oscar-trace: %s: unexpected ph "
                         "\"%s\"\n", path.c_str(), ev.ph.c_str());
            return 1;
        }
    }
    for (const auto& [lane, count] : open) {
        if (count != 0) {
            std::fprintf(stderr,
                         "oscar-trace: %s: %lld unclosed span(s) on "
                         "pid %lld tid %lld\n",
                         path.c_str(), count, lane.first, lane.second);
            return 1;
        }
    }
    if (begins == 0) {
        std::fprintf(stderr, "oscar-trace: %s: no spans\n", path.c_str());
        return 1;
    }
    if (static_cast<long long>(span_pids.size()) < min_pids) {
        std::fprintf(stderr,
                     "oscar-trace: %s: spans from %zu process(es), "
                     "expected >= %lld\n",
                     path.c_str(), span_pids.size(), min_pids);
        return 1;
    }
    std::printf("oscar-trace: %s ok: %lld spans across %zu processes\n",
                path.c_str(), begins, span_pids.size());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        std::string out_path;
        std::string check_path;
        int qubits = 8;
        int depth = 1;
        std::size_t num_points = 48;
        int workers = 2;
        int threads = 2;
        long long min_pids = 2;
        for (int i = 1; i < argc; ++i) {
            const char* val = nullptr;
            if (tools::flagValue(argc, argv, i, "--out", val))
                out_path = val;
            else if (tools::flagValue(argc, argv, i, "--check", val))
                check_path = val;
            else if (tools::flagValue(argc, argv, i, "--qubits", val))
                qubits = static_cast<int>(
                    tools::parseInt("--qubits", val, 4, 24));
            else if (tools::flagValue(argc, argv, i, "--depth", val))
                depth = static_cast<int>(
                    tools::parseInt("--depth", val, 1, 2));
            else if (tools::flagValue(argc, argv, i, "--points", val))
                num_points = static_cast<std::size_t>(
                    tools::parseInt("--points", val, 16, 1 << 20));
            else if (tools::flagValue(argc, argv, i, "--workers", val))
                workers = static_cast<int>(
                    tools::parseInt("--workers", val, 1, 64));
            else if (tools::flagValue(argc, argv, i, "--threads", val))
                threads = static_cast<int>(
                    tools::parseInt("--threads", val, 1, 64));
            else if (tools::flagValue(argc, argv, i, "--min-pids", val))
                min_pids = tools::parseInt("--min-pids", val, 1, 4096);
            else
                return usage();
        }
        if (out_path.empty() == check_path.empty())
            return usage(); // exactly one mode
        if (!out_path.empty())
            return runTraced(out_path, qubits, depth, num_points,
                             workers, threads);
        return checkTrace(check_path, min_pids);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "oscar-trace: %s\n", e.what());
        return 1;
    }
}
