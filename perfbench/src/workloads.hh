/**
 * @file
 * The three workloads and what they report. Each runs in-process
 * against the library's public API, measures for a fixed time, checks
 * its outputs, and fills every metric of its mode: the end-to-end set
 * when untraced, the per-layer set when traced. A layer a workload
 * bypasses reports 0 for its per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <memory>

#include "cicero/warp.hh"
#include "common/parallel.hh"
#include "nerf/models.hh"
#include "util.hh"

namespace perfbench {

class SpanRecorder;

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 8.0;
    bool trace = false;
    int threads = 1;
    /** Span file written by the traced run ("" = none). */
    std::string tracePath;
};

/** Outcome of one workload run. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0; //!< frames requested
    std::uint64_t failed = 0;    //!< frames failed, skipped or shed
    std::vector<std::string> errors; //!< correctness failures, if any
    std::vector<std::string> notes;  //!< human-readable context lines
    std::map<std::string, double> values; //!< metric name -> value

    void
    fail(const std::string &why)
    {
        correct = false;
        errors.push_back(why);
    }
};

/** Name and unit of every reported metric, in print order. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};
const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &perLayerMetrics();

/** One serve_mix client session, as the generator draws it. */
struct SessionSpec
{
    cicero::ModelKind kind = cicero::ModelKind::DirectVoxGO;
    int res = 64;
    std::vector<cicero::Pose> trajectory;
    double arrivalS = 0.0; //!< scheduled, from the loop start
};

/**
 * The seeded serve_mix sessions over [0, @p horizonS): arrivals from
 * poissonSchedule at @p rate; DirectVoxGO-Fast for 3 of 4 sessions,
 * TensoRF-Fast for 1 of 4; 48, 64 or 96 pixels square in thirds; clips
 * of 4-8 frames, one in 13 30-34. Each property is dealt in shuffled
 * blocks along the arrival order (see dealBlocks).
 */
std::vector<SessionSpec> makeServeSessions(const cicero::Scene &scene,
                                           std::uint64_t seed, double rate,
                                           double horizonS);

/** Exact equality of every StageWork counter. */
inline bool
sameWork(const cicero::StageWork &a, const cicero::StageWork &b)
{
    return a.rays == b.rays && a.samples == b.samples &&
           a.indexOps == b.indexOps && a.vertexFetches == b.vertexFetches &&
           a.gatherBytes == b.gatherBytes && a.interpOps == b.interpOps &&
           a.mlpMacs == b.mlpMacs && a.compositeOps == b.compositeOps;
}

/** Exact equality of every WarpStats counter. */
inline bool
sameWarp(const cicero::WarpStats &a, const cicero::WarpStats &b)
{
    return a.totalPixels == b.totalPixels && a.warped == b.warped &&
           a.voidHoles == b.voidHoles && a.disoccluded == b.disoccluded &&
           a.angleRejected == b.angleRejected &&
           a.pointsTransformed == b.pointsTransformed;
}

RunResult runFrameRender(const RunOptions &opt);
RunResult runSparwOrbit(const RunOptions &opt);
RunResult runServeMix(const RunOptions &opt);

// ---- shared by the workloads -------------------------------------------

/** Fixed per-workload constants (recorded in BENCHMARK.json). */
struct WorkloadConstants
{
    double frameTailPct;   //!< client.frame_tail_ms percentile
    double sessionTailPct; //!< client.session_tail_ms percentile
    double frameLimitMs;   //!< slo_frac frame-latency limit
};

/**
 * Fill the latency metrics from per-frame and per-session latency
 * samples (ms): frame_p50_ms (end to end) and the client.* tails and
 * session median (reported with the per-layer set: serve_mix's tails
 * and session latencies are too unsteady across seeds to carry a
 * bound). Notes the sample counts and whether each fixed tail leaves
 * kTailMinBeyond samples beyond it.
 */
void reportLatencies(RunResult &r, const WorkloadConstants &k,
                     const std::vector<double> &frameMs,
                     const std::vector<double> &sessionMs);

/**
 * Scheduler counter deltas @p d over a bracket of @p wallS seconds, as
 * per-layer metrics.
 */
void reportScheduler(RunResult &r, const cicero::SchedulerCounters &d,
                     double wallS, int threads, std::uint64_t frames);

/**
 * bench.trace_overhead_frac over equal work: the traced pass serves the
 * untraced loop's requests again from the first, so over the requests
 * both served it is 1 - untraced time / traced time, that is, 1 minus
 * traced over untraced throughput on the same frames.
 */
void reportTraceOverhead(RunResult &r, const std::vector<double> &untracedMs,
                         const std::vector<double> &tracedMs);

/**
 * Write the span file (run.py checks that it parses and nests); a
 * write failure fails @p r.
 */
void finishTrace(RunResult &r, SpanRecorder &rec, const RunOptions &opt);

/** The set-up time metric: the median of the set-up repetitions. */
void reportSetup(RunResult &r, const std::vector<double> &setupS);

/**
 * The set-up shared by frame_render and sparw_orbit: build and bake
 * Instant-NGP (Full preset) for @p scene and warm it up with full
 * 256x256 renders at a few of @p warmupPoses, twice over, reporting
 * the median (the mean of the two) as setup_s. Returns the last model.
 */
std::unique_ptr<cicero::NerfModel>
setUpNgpModel(RunResult &r, const cicero::Scene &scene,
              const std::vector<cicero::Pose> &warmupPoses);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
