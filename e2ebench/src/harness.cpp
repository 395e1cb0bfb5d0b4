#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "src/common/fnv1a.h"
#include "src/quantum/kernels.h"

#ifndef OSCAR_E2E_BUILD_TYPE
#define OSCAR_E2E_BUILD_TYPE "unknown"
#endif
#ifndef OSCAR_E2E_COMPILER
#define OSCAR_E2E_COMPILER "unknown"
#endif

namespace fs = std::filesystem;

namespace e2e {

int
benchProcs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

bool
Tally::check(bool ok, const std::string& what)
{
    attempted++;
    if (!ok) {
        failed++;
        if (failures.size() < 64)
            failures.push_back(what);
        std::fprintf(stderr, "e2ebench: FAILED %s\n", what.c_str());
    }
    return ok;
}

void
Report::add(const std::string& name, double value, const std::string& unit)
{
    metrics.push_back({name, value, unit});
}

void
Report::na(const std::string& name, const std::string& unit)
{
    add(name, 0.0, unit);
    notApplicable.push_back(name);
}

void
Report::note(const std::string& key, const std::string& json_value)
{
    notes.emplace_back(key, json_value);
}

std::size_t
SpanLog::begin(const std::string& name)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    span.t0Ns = oscar::obs::Tracer::nowNs();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanLog::end(std::size_t id)
{
    spans_[id].t1Ns = oscar::obs::Tracer::nowNs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
SpanLog::append(const std::vector<Span>& spans)
{
    const long offset = static_cast<long>(spans_.size());
    for (Span s : spans) {
        s.parent = s.parent >= 0 ? s.parent + offset
                   : open_.empty() ? -1
                                   : static_cast<long>(open_.back());
        spans_.push_back(std::move(s));
    }
}

std::vector<std::pair<std::string, double>>
categorySelfSeconds(const std::vector<oscar::obs::SpanRecord>& records)
{
    // Group by thread, order outermost-first, and link each span to the
    // innermost earlier span on the same thread that still contains it.
    std::map<std::pair<std::int32_t, std::uint32_t>, std::vector<std::size_t>>
        by_thread;
    for (std::size_t i = 0; i < records.size(); ++i)
        by_thread[{records[i].pid, records[i].tid}].push_back(i);

    std::map<std::string, double> self_by_cat;
    for (auto& [thread, ids] : by_thread) {
        std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
            const auto& ra = records[a];
            const auto& rb = records[b];
            return std::tie(ra.t0Ns, rb.durNs) < std::tie(rb.t0Ns, ra.durNs);
        });
        std::vector<Span> spans;
        std::vector<std::size_t> open;
        for (std::size_t id : ids) {
            const auto& r = records[id];
            Span s;
            s.name = oscar::obs::spanCategoryName(r.category);
            s.t0Ns = r.t0Ns;
            s.t1Ns = r.t0Ns + r.durNs;
            while (!open.empty() && spans[open.back()].t1Ns < s.t1Ns)
                open.pop_back();
            s.parent = open.empty() ? -1 : static_cast<long>(open.back());
            spans.push_back(s);
            open.push_back(spans.size() - 1);
        }
        for (const auto& [cat, secs] : selfSecondsByName(spans))
            self_by_cat[cat] += secs;
    }
    return {self_by_cat.begin(), self_by_cat.end()};
}

std::vector<oscar::obs::SpanRecord>
programSpans(std::uint64_t t0_ns, std::uint64_t t1_ns)
{
    // collect() returns the whole ring, earlier windows included, so
    // select by time; CLOCK_MONOTONIC is shared by all host processes.
    std::vector<oscar::obs::SpanRecord> out;
    for (const auto& r : oscar::obs::Tracer::global().collectAll()) {
        if (r.t0Ns >= t0_ns && r.t0Ns + r.durNs <= t1_ns)
            out.push_back(r);
    }
    oscar::obs::Tracer::global().clear();
    return out;
}

std::uint64_t
digestBits(const std::vector<double>& values)
{
    std::uint64_t h = oscar::kFnv1aOffsetBasis;
    for (double v : values)
        h = oscar::fnv1aAppendU64(h, std::bit_cast<std::uint64_t>(v));
    return h;
}

bool
bitIdentical(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double
peakRssMb(const std::vector<int>& children)
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    double kib = static_cast<double>(usage.ru_maxrss); // KiB on Linux
    for (int pid : children) {
        std::ifstream status("/proc/" + std::to_string(pid) + "/status");
        std::string key;
        double value = 0.0;
        while (status >> key && key != "VmHWM:")
            status.ignore(4096, '\n');
        if (!(status >> value))
            throw std::runtime_error("no VmHWM for process " +
                                     std::to_string(pid));
        kib += value;
    }
    return kib / 1024.0;
}

bool
digestRepeats(const Args& args, const std::string& label,
              std::uint64_t digest)
{
    const fs::path dir = fs::path(args.workDir) / "digests";
    fs::create_directories(dir);
    const fs::path file =
        dir / (args.workload + "-" + std::to_string(args.seed) + "-" +
               args.sourceDigest.substr(0, 16) + "-" + label + ".txt");
    char text[32];
    std::snprintf(text, sizeof(text), "%016" PRIx64, digest);
    std::ifstream in(file);
    std::string recorded;
    if (in >> recorded)
        return recorded == text;
    std::ofstream(file) << text << "\n";
    return true;
}

ScratchDir::ScratchDir(const Args& args, const std::string& tag)
{
    path = (fs::path(args.workDir) / "run" /
            (tag + "-" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    fs::remove_all(path, ec);
}

oscar::store::StoredLandscape
storedLandscape(const oscar::GridSpec& grid,
                const std::vector<std::size_t>& indices,
                const std::vector<double>& samples,
                const std::vector<double>& reconstructed, double fraction,
                std::uint64_t seed)
{
    oscar::store::StoredLandscape entry;
    entry.grid = grid;
    entry.sampleIndices.assign(indices.begin(), indices.end());
    entry.sampleValues = samples;
    entry.reconstructed = reconstructed;
    entry.samplingFraction = fraction;
    entry.sampleSeed = seed;
    entry.queriesUsed = indices.size();
    entry.querySpeedup = static_cast<double>(grid.numPoints()) /
                         static_cast<double>(indices.size());
    return entry;
}

StoreProbe::StoreProbe(const Args& args, oscar::store::StoredLandscape entry)
    : dir_(args, "store"), store_({dir_.path + "/store"}),
      entry_(std::move(entry))
{
    for (std::uint64_t k = 0; k < 4; ++k) {
        keys_.push_back({0xe2eb0000u + k, oscar::store::gridHash(entry_.grid),
                         oscar::store::configHash(entry_.samplingFraction,
                                                  entry_.sampleSeed)});
        const double t0 = nowS();
        store_.put(keys_.back(), entry_);
        puts_.push_back(nowS() - t0);
    }
}

void
StoreProbe::load(std::size_t min_loads, double min_seconds)
{
    const double start = nowS();
    for (std::size_t i = 0;
         i < min_loads || (nowS() - start < min_seconds && i < 100000); ++i) {
        const double t0 = nowS();
        const auto got = store_.load(keys_[loads_.size() % keys_.size()]);
        loads_.push_back(nowS() - t0);
        identical_ = identical_ && got &&
                     bitIdentical(got->reconstructed, entry_.reconstructed);
    }
}

std::size_t
StoreProbe::containerBytes() const
{
    return fs::file_size(store_.containerPath(keys_[0]));
}

std::size_t
StoreProbe::rawBytes() const
{
    return sizeof(double) * (entry_.reconstructed.size() +
                             entry_.sampleValues.size() +
                             entry_.sampleIndices.size());
}

namespace {

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
jsonArray(const std::vector<double>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(values[i]);
    return out + "]";
}

std::string
provenanceJson(const Args& args, const std::string& why)
{
    const auto isa = oscar::kernels::defaultKernelTable().isa;
    std::ostringstream out;
    out << "{\"nproc\": " << benchProcs()
        << ", \"kernel_isa\": " << jsonString(oscar::kernels::isaName(isa))
        << ", \"build_type\": " << jsonString(OSCAR_E2E_BUILD_TYPE)
        << ", \"compiler\": " << jsonString(OSCAR_E2E_COMPILER)
        << ", \"commit\": " << jsonString(args.commit)
        << ", \"source_digest\": " << jsonString(args.sourceDigest)
        << ", \"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"seconds\": " << jsonNumber(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"why\": " << jsonString(why) << "}";
    return out.str();
}

std::string
resultJson(const Report& report, const Tally& tally)
{
    std::ostringstream out;
    out << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << tally.attempted
        << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto& m = report.metrics[i];
        out << (i ? ", " : "") << jsonString(m.name)
            << ": {\"value\": " << jsonNumber(m.value)
            << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    out << "}}";
    return out.str();
}

void
writeReport(const Args& args, const std::string& provenance,
            const Report& report, const Tally& tally,
            const std::vector<Span>& spans)
{
    const fs::path dir = fs::path(args.workDir) / "reports";
    fs::create_directories(dir);
    const fs::path file =
        dir / (args.workload + "-seed" + std::to_string(args.seed) +
               "-trace" + (args.trace ? "1" : "0") + ".json");
    std::ofstream out(file);
    out << "{\n  \"provenance\": " << provenance << ",\n  \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto& m = report.metrics[i];
        out << (i ? ",\n    " : "\n    ") << jsonString(m.name)
            << ": {\"value\": " << jsonNumber(m.value)
            << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    out << "\n  },\n  \"not_applicable\": [";
    for (std::size_t i = 0; i < report.notApplicable.size(); ++i)
        out << (i ? ", " : "") << jsonString(report.notApplicable[i]);
    out << "],\n  \"attempted\": " << tally.attempted
        << ",\n  \"failed\": " << tally.failed << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < tally.failures.size(); ++i)
        out << (i ? ", " : "") << jsonString(tally.failures[i]);
    out << "]";
    for (const auto& [key, value] : report.notes)
        out << ",\n  " << jsonString(key) << ": " << value;
    out << ",\n  \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << (i ? ",\n    " : "\n    ") << "{\"name\": "
            << jsonString(s.name) << ", \"start_ns\": " << s.t0Ns
            << ", \"end_ns\": " << s.t1Ns << ", \"parent\": " << s.parent
            << "}";
    }
    out << "\n  ]\n}\n";
}

} // namespace e2e
