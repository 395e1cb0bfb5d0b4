/**
 * @file
 * Shared plumbing of the end-to-end benchmark: command-line options,
 * the correctness tally, the metric report, the benchmark's own span
 * log, and small measurement helpers (digests, peak RSS, the on-disk
 * digest record, store timing). Workloads live in pipeline.cpp and
 * serve_mix.cpp; main.cpp dispatches and prints the result line.
 */
#ifndef OSCAR_E2EBENCH_HARNESS_H
#define OSCAR_E2EBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_math.h"
#include "src/landscape/grid.h"
#include "src/obs/trace.h"
#include "src/store/landscape_store.h"

namespace e2e {

/** Command line of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for reports, digest records and scratch stores. */
    std::string workDir = ".bench_build/e2ebench";
    /** Provenance passed in by run.py (the checkout is not a git tree). */
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

/** Workers, threads and client connections the benchmark may use. */
int benchProcs();

/** Monotonic wall clock, seconds. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Operations attempted and failed. Every timed operation and every
 * correctness gate is one attempt; a failure is logged to stderr.
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    bool check(bool ok, const std::string& what);
};

/** Metrics of one run, in insertion order, plus report-only notes. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    /** Per-layer metrics that do not apply to this workload (reported 0). */
    std::vector<std::string> notApplicable;
    /** Extra JSON members for the report file ("key": value text). */
    std::vector<std::pair<std::string, std::string>> notes;

    void add(const std::string& name, double value, const std::string& unit);
    void na(const std::string& name, const std::string& unit);
    void note(const std::string& key, const std::string& json_value);
};

/**
 * The benchmark's own spans: name, start, end and parent, recorded on
 * the calling thread around each call into a layer's public API.
 */
class SpanLog
{
  public:
    /** Open a span under the innermost open one. */
    std::size_t begin(const std::string& name);
    void end(std::size_t id);

    /** RAII helper: `const auto s = log.scope("cs.solve");`. */
    class Scope
    {
      public:
        Scope(SpanLog& log, std::size_t id) : log_(log), id_(id) {}
        ~Scope() { log_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanLog& log_;
        std::size_t id_;
    };
    Scope scope(const std::string& name) { return {*this, begin(name)}; }

    /** Append closed spans recorded elsewhere, re-basing parents. */
    void append(const std::vector<Span>& spans);

    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/**
 * Self time summed over threads per program span category ("engine",
 * "replay", ...), nesting inferred per (pid, tid) by containment, since
 * the program's span rings record no parent link.
 */
std::vector<std::pair<std::string, double>>
categorySelfSeconds(const std::vector<oscar::obs::SpanRecord>& spans);

/**
 * The program's own spans (every process) that lie within
 * [t0_ns, t1_ns]; parked remote spans are released afterwards.
 */
std::vector<oscar::obs::SpanRecord> programSpans(std::uint64_t t0_ns,
                                                 std::uint64_t t1_ns);

/** FNV-1a over the exact bits of `values`. */
std::uint64_t digestBits(const std::vector<double>& values);

/** Bit-for-bit equality of two value vectors. */
bool bitIdentical(const std::vector<double>& a, const std::vector<double>& b);

/**
 * Peak resident set so far, MiB: this process (getrusage) plus the
 * high-water mark (VmHWM) of each of `children`, e.g. a fleet's
 * worker processes, which hold that workload's statevectors and caches.
 */
double peakRssMb(const std::vector<int>& children = {});

/**
 * Cross-run determinism gate: the first run of (workload, seed, source
 * digest) records `digest` under the work directory; every later run
 * must reproduce it. Returns false on a mismatch.
 */
bool digestRepeats(const Args& args, const std::string& label,
                   std::uint64_t digest);

/** A fresh scratch directory under the work directory, removed by the
 * destructor. Paths are relative to the checkout so socket paths stay
 * short. */
struct ScratchDir
{
    explicit ScratchDir(const Args& args, const std::string& tag);
    ~ScratchDir();
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    std::string path;
};

/** A store entry holding one reconstruction of `grid`. */
oscar::store::StoredLandscape
storedLandscape(const oscar::GridSpec& grid,
                const std::vector<std::size_t>& indices,
                const std::vector<double>& samples,
                const std::vector<double>& reconstructed,
                double fraction, std::uint64_t seed);

/**
 * A scratch LandscapeStore holding one entry under a few keys: put
 * timings on construction, load latencies on demand, each load checked
 * bit for bit against the entry.
 */
class StoreProbe
{
  public:
    StoreProbe(const Args& args, oscar::store::StoredLandscape entry);

    /** Load round-robin until `min_loads` more loads and `min_seconds`. */
    void load(std::size_t min_loads, double min_seconds);

    double putS() const { return median(puts_); }
    std::size_t containerBytes() const;
    /** Payload bytes: every stored double and index, 8 bytes each. */
    std::size_t rawBytes() const;
    const std::vector<double>& loads() const { return loads_; }
    /** True while every load returned the entry's exact bits. */
    bool loadsIdentical() const { return identical_; }
    oscar::store::StoreStats stats() const { return store_.stats(); }

  private:
    ScratchDir dir_;
    oscar::store::LandscapeStore store_;
    oscar::store::StoredLandscape entry_;
    std::vector<oscar::store::StoreKey> keys_;
    std::vector<double> puts_;
    std::vector<double> loads_;
    bool identical_ = true;
};

/** JSON array of numbers, for report notes. */
std::string jsonArray(const std::vector<double>& values);

/** Provenance block: host, kernel ISA, build, commit, seed, reason. */
std::string provenanceJson(const Args& args, const std::string& why);

/**
 * The result line: {"correct", "attempted", "failed", "metrics"} with
 * every metric's value printed with all its digits.
 */
std::string resultJson(const Report& report, const Tally& tally);

/** Write the full report of a run under <workDir>/reports/. */
void writeReport(const Args& args, const std::string& provenance,
                 const Report& report, const Tally& tally,
                 const std::vector<Span>& spans);

} // namespace e2e

#endif // OSCAR_E2EBENCH_HARNESS_H
