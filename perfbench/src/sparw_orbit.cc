/**
 * @file
 * sparw_orbit: one closed-loop client asking SparwPipeline::run for
 * 12-frame clips (two windows) of a seeded orbit, with the
 * default SparwConfig (window 6, dependency-graph schedule), on the
 * same model and resolution as frame_render. Warping and sparse
 * re-rendering do much of the work; the nerf layer renders one full
 * reference per window plus the disoccluded pixels.
 *
 * The traced run rebuilds each clip from public calls (render at each
 * reference pose, warpFrame per target, renderPixels on the
 * disoccluded set) and checks that every frame's WarpStats, sparse
 * StageWork and bits equal run()'s.
 */

#include <cstdio>
#include <mutex>

#include "cicero/pose_extrapolation.hh"
#include "cicero/sparw.hh"
#include "common/parallel.hh"
#include "inputs.hh"
#include "nerf/models.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace cicero;

namespace perfbench {

namespace {

constexpr int kRes = 256;
constexpr int kClip = 12;        // frames per client request
constexpr int kOrbitFrames = 540; // one loop at 20 deg/s and 30 fps
// Successive clips start a golden angle (137.5 degrees) apart, so any
// run's clips cover the whole loop evenly whatever the seeded start.
constexpr int kClipStride = 206;
constexpr int kOracleClips = 2;
constexpr double kPsnrCapDb = 60.0;
constexpr WorkloadConstants kConst{60.0, 60.0, 40.0};

/** What run() produced for one frame, kept for the exact comparisons. */
struct FrameRecord
{
    std::uint64_t hash = 0;
    WarpStats warp;
    StageWork sparse;
};

struct Setup
{
    Scene scene;
    std::unique_ptr<NerfModel> model;
    std::vector<Pose> orbit;
    SparwConfig config;
    Camera intrinsics;

    std::vector<Pose>
    clip(int c) const
    {
        std::vector<Pose> out;
        for (int k = 0; k < kClip; ++k)
            out.push_back(orbit[(c * kClipStride + k) % kOrbitFrames]);
        return out;
    }

    Camera
    cameraAt(const Pose &pose) const
    {
        Camera cam = intrinsics;
        cam.pose = pose;
        return cam;
    }
};

std::vector<FrameRecord>
recordRun(const SparwRun &run)
{
    std::vector<FrameRecord> out;
    for (const SparwFrame &f : run.frames)
        out.push_back({frameHash(f.image, f.depth), f.warpStats,
                       f.sparseWork});
    return out;
}

struct LoopOut
{
    std::vector<double> clipMs;
    std::vector<std::vector<FrameRecord>> clips;
};

LoopOut
clipLoop(const Setup &s, double seconds)
{
    LoopOut out;
    SparwPipeline pipeline(*s.model, s.intrinsics, s.config);
    const Clock::time_point start = Clock::now();
    for (int c = 0; secondsBetween(start, Clock::now()) < seconds; ++c) {
        const std::vector<Pose> clip = s.clip(c);
        const Clock::time_point t0 = Clock::now();
        const SparwRun run = pipeline.run(clip);
        out.clipMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        out.clips.push_back(recordRun(run));
    }
    return out;
}

/**
 * Check seeded clips against a 1-thread run() and score their frames'
 * PSNR against full renders at the same poses. Returns the mean PSNR.
 */
double
checkOracle(RunResult &r, const Setup &s, const LoopOut &loop,
            std::uint64_t seed, int threads)
{
    Rng rng(streamSeed(seed, 0x0AC2));
    const int n = static_cast<int>(loop.clips.size());
    SparwPipeline pipeline(*s.model, s.intrinsics, s.config);
    double psnrSum = 0.0;
    int scored = 0;
    for (int k = 0; k < kOracleClips && n > 0; ++k) {
        const int c = rng.range(0, n - 1);
        const std::vector<Pose> clip = s.clip(c);
        setParallelThreadCount(1);
        const SparwRun ref = pipeline.run(clip);
        setParallelThreadCount(threads);
        const std::vector<FrameRecord> rec = recordRun(ref);
        for (int f = 0; f < kClip; ++f) {
            const FrameRecord &a = rec[f];
            const FrameRecord &b = loop.clips[c][f];
            if (a.hash != b.hash || !sameWarp(a.warp, b.warp) ||
                !sameWork(a.sparse, b.sparse))
                r.fail("clip " + std::to_string(c) + " frame " +
                       std::to_string(f) +
                       " differs from the 1-thread run()");
            const RenderResult full =
                s.model->render(s.cameraAt(clip[f]));
            psnrSum += std::min(kPsnrCapDb, psnr(ref.frames[f].image,
                                                 full.image));
            ++scored;
        }
    }
    return scored ? psnrSum / scored : 0.0;
}

void
reportEndToEnd(RunResult &r, const LoopOut &loop, double psnrDb)
{
    // Closed loop: throughput over the time spent inside run(), so the
    // client's own bookkeeping between requests does not count.
    const double frames = static_cast<double>(loop.clips.size()) * kClip;
    double busyS = 0.0;
    for (double ms : loop.clipMs)
        busyS += ms / 1e3;
    r.values["frames_per_s"] = frames / busyS;
    r.values["rays_per_s"] = frames * kRes * kRes / busyS;
    // A session is one clip request; a frame's latency is its share of
    // the clip (run() returns the whole clip at once).
    std::vector<double> frameMs;
    std::size_t within = 0;
    for (double ms : loop.clipMs) {
        frameMs.push_back(ms / kClip);
        within += ms / kClip <= kConst.frameLimitMs ? kClip : 0;
    }
    reportLatencies(r, kConst, frameMs, loop.clipMs);
    r.values["slo_frac"] = frames > 0 ? within / frames : 0.0;
    r.values["psnr_db"] = psnrDb;
    r.values["delivered_frac"] = 1.0;
}

/** Per-layer time sums of the traced rebuild. */
struct LayerTally
{
    double referenceNs = 0.0;
    std::uint64_t references = 0;
    double warpNs = 0.0;
    double sparseNs = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t referenceSamples = 0;
    std::uint64_t sparseSamples = 0;
    double warped = 0.0;   //!< sum of per-frame overlap fractions
    double rerender = 0.0; //!< sum of per-frame re-render fractions
};

/**
 * Rebuild one clip from public calls, window by window: render() at
 * the reference pose run() resolves, then warpFrame + renderPixels for
 * the window's frames in parallel (as run() processes a window).
 */
std::vector<FrameRecord>
rebuildClip(const Setup &s, const std::vector<Pose> &clip, int c,
            SpanRecorder &rec, LayerTally &t, std::mutex &mu)
{
    const int window = std::max(1, s.config.window);
    const int numWindows = (kClip + window - 1) / window;
    std::vector<FrameRecord> out(kClip);
    ScopedSpan clipSpan(&rec, "cicero.sparw.clip", 0, c);
    for (int wi = 0; wi < numWindows; ++wi) {
        ScopedSpan windowSpan(&rec, "cicero.sparw.window", clipSpan.id(), c);
        const int i0 = wi * window;
        const Pose refPose =
            i0 >= 2 ? extrapolateReferencePose(clip[i0 - 2], clip[i0 - 1],
                                               s.config.dtSeconds, window)
                    : clip[0];
        const Camera refCam = s.cameraAt(refPose);
        RenderResult ref;
        {
            ScopedSpan span(&rec, "cicero.sparw.reference.render",
                            windowSpan.id(), c);
            const Clock::time_point t0 = Clock::now();
            ref = s.model->render(refCam);
            const double ns = secondsBetween(t0, Clock::now()) * 1e9;
            std::lock_guard<std::mutex> lock(mu);
            t.referenceNs += ns;
            ++t.references;
            t.referenceSamples += ref.work.samples;
        }
        const int i1 = std::min(i0 + window, kClip);
        parallelForOuter(i1 - i0, [&](std::int64_t k) {
            const int i = i0 + static_cast<int>(k);
            const Camera tgtCam = s.cameraAt(clip[i]);
            ScopedSpan frameSpan(&rec, "cicero.sparw.frame", windowSpan.id(),
                                 c);
            Clock::time_point t0 = Clock::now();
            WarpOutput w;
            {
                ScopedSpan span(&rec, "cicero.warp.warpFrame", frameSpan.id(),
                                c);
                w = warpFrame(ref.image, ref.depth, refCam, tgtCam,
                              &s.model->occupancy(),
                              s.model->scene().background, s.config.warp);
            }
            Clock::time_point t1 = Clock::now();
            StageWork sparse;
            {
                ScopedSpan span(&rec, "cicero.sparw.renderPixels",
                                frameSpan.id(), c);
                sparse = s.model->renderPixels(tgtCam, w.needRender, w.image,
                                               w.depth);
            }
            const Clock::time_point t2 = Clock::now();
            out[i] = {frameHash(w.image, w.depth), w.stats, sparse};
            std::lock_guard<std::mutex> lock(mu);
            t.warpNs += secondsBetween(t0, t1) * 1e9;
            t.sparseNs += secondsBetween(t1, t2) * 1e9;
            ++t.frames;
            t.sparseSamples += sparse.samples;
            t.warped += w.stats.overlapFraction();
            t.rerender += w.stats.rerenderFraction();
        });
    }
    return out;
}

void
tracedPass(RunResult &r, const Setup &s, const LoopOut &untraced,
           const RunOptions &opt)
{
    SpanRecorder rec;
    LayerTally t;
    std::mutex mu;
    std::vector<std::vector<FrameRecord>> rebuilt;
    std::vector<double> clipMs;
    const SchedulerCounters base = parallelSchedulerCounters();
    const Clock::time_point start = Clock::now();
    for (int c = 0; secondsBetween(start, Clock::now()) < opt.seconds / 2;
         ++c) {
        const Clock::time_point t0 = Clock::now();
        rebuilt.push_back(rebuildClip(s, s.clip(c), c, rec, t, mu));
        clipMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
    const double wallS = secondsBetween(start, Clock::now());
    const std::uint64_t frames = rebuilt.size() * kClip;
    reportScheduler(r, parallelSchedulerCountersSince(base), wallS,
                    opt.threads, frames);
    // The rebuild from public calls, with spans, against run() on the
    // same clips.
    reportTraceOverhead(r, untraced.clipMs, clipMs);

    // The rebuild must reproduce run() exactly: same warp statistics,
    // same sparse work, same bits, frame by frame.
    SparwPipeline pipeline(*s.model, s.intrinsics, s.config);
    for (std::size_t c = 0; c < rebuilt.size(); ++c) {
        const std::vector<FrameRecord> twin =
            c < untraced.clips.size()
                ? untraced.clips[c]
                : recordRun(pipeline.run(s.clip(static_cast<int>(c))));
        for (int f = 0; f < kClip; ++f) {
            const FrameRecord &a = rebuilt[c][f];
            const FrameRecord &b = twin[f];
            if (!sameWarp(a.warp, b.warp))
                r.fail("rebuilt clip " + std::to_string(c) + " frame " +
                       std::to_string(f) + ": WarpStats differ from run()");
            if (!sameWork(a.sparse, b.sparse))
                r.fail("rebuilt clip " + std::to_string(c) + " frame " +
                       std::to_string(f) +
                       ": sparse StageWork differs from run()");
            if (a.hash != b.hash)
                r.fail("rebuilt clip " + std::to_string(c) + " frame " +
                       std::to_string(f) + ": image differs from run()");
        }
    }
    r.notes.push_back("rebuild checked against run() on " +
                      std::to_string(rebuilt.size()) + " clips");

    const double fr = static_cast<double>(std::max<std::uint64_t>(t.frames, 1));
    r.values["cicero.sparw.reference_ms"] =
        t.references ? t.referenceNs / 1e6 / t.references : 0.0;
    r.values["cicero.sparw.sparse_ms_per_frame"] = t.sparseNs / 1e6 / fr;
    const std::uint64_t samples = t.referenceSamples + t.sparseSamples;
    r.values["cicero.sparw.reference_sample_frac"] =
        samples ? static_cast<double>(t.referenceSamples) / samples : 0.0;
    r.values["cicero.warp.ms_per_frame"] = t.warpNs / 1e6 / fr;
    r.values["cicero.warp.warped_frac"] = t.warped / fr;
    r.values["cicero.warp.rerender_frac"] = t.rerender / fr;
    r.attempted += frames;
    finishTrace(r, rec, opt);
}

} // namespace

RunResult
runSparwOrbit(const RunOptions &opt)
{
    RunResult r;
    Setup s;
    s.scene = makeScene("lego");
    OrbitSpec orbit;
    orbit.degPerFrame = 360.0 / kOrbitFrames;
    orbit.wobbleFrames = kOrbitFrames / 4.0; // periodic over the loop
    s.orbit = orbitPoses(s.scene, opt.seed, kOrbitFrames, orbit);
    s.intrinsics = Camera::fromFov(kRes, kRes, s.scene.fovYDeg);
    s.model = setUpNgpModel(r, s.scene, s.orbit);

    const LoopOut loop = clipLoop(s, opt.seconds);
    r.attempted = loop.clips.size() * kClip;
    if (opt.trace)
        tracedPass(r, s, loop, opt);
    const double psnrDb = checkOracle(r, s, loop, opt.seed, opt.threads);
    reportEndToEnd(r, loop, psnrDb);
    return r;
}

} // namespace perfbench
