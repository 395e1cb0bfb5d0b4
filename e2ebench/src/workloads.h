/**
 * @file
 * The benchmark's workloads. Every workload builds its inputs from the
 * run's seed, measures for the run's seconds, gates its outputs, and
 * fills a Report: end-to-end metrics when untraced, per-layer metrics
 * when traced.
 */
#ifndef OSCAR_E2EBENCH_WORKLOADS_H
#define OSCAR_E2EBENCH_WORKLOADS_H

#include <initializer_list>
#include <string>
#include <vector>

#include "harness.h"
#include "src/graph/graph.h"

namespace e2e {

struct WorkloadInfo
{
    const char* name;
    /** Why the workload exists: which layers it isolates. */
    const char* why;
};

/** All workloads, in BENCHMARK.json order. */
const std::vector<WorkloadInfo>& workloads();

/**
 * The MaxCut instance of a workload: a fixed 3-regular graph per qubit
 * count, like the grid, so that run-to-run differences come from the
 * seeded inputs (sample sets, noise draws, request streams) and not
 * from a different problem.
 */
oscar::Graph problemGraph(int qubits);

/** Seed of the run's k-th sample set. */
std::uint64_t sampleSeed(std::uint64_t run_seed, std::uint64_t k);

/** p2_sv_barrier, p1_fleet_barrier and p1_noisy_stream. */
void runPipelineWorkload(const Args& args, Tally& tally, Report& report,
                         SpanLog& log);

/** serve_mix: a closed loop of clients against an in-process daemon. */
void runServeMix(const Args& args, Tally& tally, Report& report,
                 SpanLog& log);

/**
 * Traced per-layer study of one pipeline, outside in: times each
 * layer's public call, reconciles the layers with a traced
 * Oscar::reconstruct, and adds the landscape / backend / dist / cs /
 * core / obs rows to `report`, plus the per-category self times of
 * the program's own spans when `category_rows`. `pipeline` names a
 * pipeline workload or "serve_request" (the request serve_mix issues).
 * Returns the reconstructed landscape as a store entry.
 */
oscar::store::StoredLandscape
traceLayers(const std::string& pipeline, const Args& args, double seconds,
            Tally& tally, Report& report, SpanLog& log,
            bool category_rows = true);

/** Program span categories reported as cat.<name>_s rows. */
inline constexpr std::initializer_list<const char*> kCategories = {
    "engine", "replay", "cache", "dist", "wire", "store", "serve"};
inline constexpr std::initializer_list<const char*> kNoCategories = {};

/** Adds the store.* rows measured on `entry` (put/load, size, counts). */
void addStoreRows(const Args& args, const oscar::store::StoredLandscape& entry,
                  Tally& tally, Report& report, bool with_counts);

} // namespace e2e

#endif // OSCAR_E2EBENCH_WORKLOADS_H
