/**
 * @file
 * oscar_e2e: one run of one workload of the end-to-end benchmark.
 *
 *   oscar_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>] [--commit <id>] [--source-digest <hex>]
 *
 * Prints a provenance line, then as the last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * untraced, the per-layer metrics traced. The full report (provenance,
 * every metric, gate failures, the benchmark's spans) is written under
 * <work-dir>/reports/. Usually started through run.py, which builds it
 * and checks the metric names against BENCHMARK.json.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "src/obs/trace.h"
#include "workloads.h"

namespace e2e {
namespace {

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "oscar_e2e: %s\nusage: oscar_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>] "
                 "[--commit <id>] [--source-digest <hex>]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value), have_seed = true;
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--work-dir")
                args.workDir = value;
            else if (flag == "--commit")
                args.commit = value;
            else if (flag == "--source-digest")
                args.sourceDigest = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!have_seed || !(args.seconds > 0.0))
        usage("--seed and a positive --seconds are required");
    return args;
}

} // namespace
} // namespace e2e

int
main(int argc, char** argv)
{
    using namespace e2e;
    const Args args = parseArgs(argc, argv);
    const WorkloadInfo* info = nullptr;
    for (const WorkloadInfo& w : workloads())
        info = args.workload == w.name ? &w : info;
    if (!info)
        usage("unknown workload \"" + args.workload + "\"");

    // Program tracing stays off except around the traced reconstructions.
    // This process's span rings are sized so a traced run never wraps
    // them: the fleet coordinator records dispatch, steal and wire spans
    // per shard and per steal (tens of thousands per batch); other
    // workloads record far fewer. Spawned processes keep the default.
    ::setenv("OSCAR_TRACE_BUFFER_KB",
             args.workload == "p1_fleet_barrier" ? "65536" : "4096", 1);
    oscar::obs::applyEnv();
    ::unsetenv("OSCAR_TRACE_BUFFER_KB");
    oscar::obs::setTracing(false);

    Tally tally;
    Report report;
    SpanLog log;
    try {
        if (args.workload == "serve_mix")
            runServeMix(args, tally, report, log);
        else
            runPipelineWorkload(args, tally, report, log);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "oscar_e2e: %s: %s\n", args.workload.c_str(),
                     e.what());
        return 1;
    }

    const std::string provenance = provenanceJson(args, info->why);
    writeReport(args, provenance, report, tally, log.spans());
    std::printf("{\"provenance\": %s}\n%s\n", provenance.c_str(),
                resultJson(report, tally).c_str());
    return 0;
}
