/**
 * @file
 * cicero_perfbench: run one benchmark workload and report it.
 *
 *   cicero_perfbench --workload frame_render|sparw_orbit|serve_mix
 *                    --seed N --seconds S --trace 0|1
 *                    [--trace-out spans.json]
 *
 * Prints context lines and every metric of the mode (end-to-end when
 * --trace 0, per-layer when --trace 1) by name and unit, then, as the
 * last line, one JSON object {"correct", "attempted", "failed",
 * "metrics"}. Exits 1 when an output check failed, 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parallel.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "cicero_perfbench: %s\nusage: cicero_perfbench --workload "
                 "frame_render|sparw_orbit|serve_mix --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why);
    return 2;
}

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    RunOptions opt;
    double seed = -1;
    double trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed") {
            if (!parseNumber(val, seed) || seed < 0)
                return usage("bad --seed");
        } else if (arg == "--seconds") {
            if (!parseNumber(val, opt.seconds) || opt.seconds <= 0)
                return usage("bad --seconds");
        } else if (arg == "--trace") {
            if (!parseNumber(val, trace) || (trace != 0 && trace != 1))
                return usage("bad --trace");
        } else if (arg == "--trace-out")
            opt.tracePath = val;
        else
            return usage(("unknown option " + arg).c_str());
    }
    if (seed < 0)
        return usage("--seed is required");
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.trace = trace == 1;
    opt.threads = benchThreads();
    cicero::setParallelThreadCount(opt.threads);

    RunResult r;
    if (workload == "frame_render")
        r = runFrameRender(opt);
    else if (workload == "sparw_orbit")
        r = runSparwOrbit(opt);
    else if (workload == "serve_mix")
        r = runServeMix(opt);
    else
        return usage("unknown --workload");
    r.values["peak_rss_mb"] = peakRssMb();

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d threads=%d\n",
                workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.threads);
    for (const std::string &n : r.notes)
        std::printf("  note: %s\n", n.c_str());
    for (const std::string &e : r.errors)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());

    const std::vector<MetricSpec> &specs =
        opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::string json;
    for (const MetricSpec &m : specs) {
        auto it = r.values.find(m.name);
        if (it == r.values.end()) {
            if (!opt.trace) {
                std::fprintf(stderr, "perfbench: %s did not report %s\n",
                             workload.c_str(), m.name);
                return 3;
            }
            // A layer this workload bypasses did no work.
            it = r.values.emplace(m.name, 0.0).first;
        }
        std::printf("  %-38s %16.6f %s\n", m.name, it->second, m.unit);
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                                       "\"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", m.name, it->second, m.unit);
        json += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), json.c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
