/**
 * @file
 * frame_render: one closed-loop client rendering successive frames of
 * a seeded jittered orbit with NerfModel::render (Instant-NGP, Full
 * preset, lego, 256x256). The nerf layers do all of the work; warp,
 * serve and fusion are bypassed.
 *
 * The traced run renders the same frames again through
 * NerfModel::renderServeRows over row blocks with a timing DecodeSink
 * that wraps Decoder::decodeBatchSoA, checks them bit for bit against
 * the untraced frames, and replays the nerf layers on two frames.
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/parallel.hh"
#include "inputs.hh"
#include "nerf/models.hh"
#include "nerf_probe.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace cicero;

namespace perfbench {

namespace {

constexpr int kRes = 256;
constexpr int kRing = 96;           // orbit poses, 3.75 degrees apart
constexpr int kWarmupFrames = 8;
constexpr int kSetupReps = 2;
constexpr int kOracleFrames = 3;
constexpr int kRowsPerBlock = 8;    // traced run's row-block fan-out
constexpr double kPsnrCapDb = 60.0;
constexpr WorkloadConstants kConst{90.0, 90.0, 150.0};

Camera
cameraFor(const Scene &scene, const Pose &pose)
{
    return Camera::fromFov(kRes, kRes, scene.fovYDeg, pose);
}

/** Decode sink that times every decodeBatchSoA call it forwards. */
class TimingDecodeSink : public DecodeSink
{
  public:
    struct Tally
    {
        std::uint64_t calls = 0;
        std::uint64_t samples = 0;
        std::int64_t ns = 0;
    };

    TimingDecodeSink(const Decoder &decoder, SpanRecorder &rec)
        : _decoder(decoder), _rec(rec)
    {
    }

    /** The calling thread's running totals. */
    static Tally &tally()
    {
        thread_local Tally t;
        return t;
    }

    /** Parent span for the calling thread's decode spans (0 = none). */
    static std::uint64_t &spanParent()
    {
        thread_local std::uint64_t parent = 0;
        return parent;
    }

    /** Record one span per decode call (else only the tallies). */
    void setRecordSpans(bool on, std::int64_t request)
    {
        _recordSpans.store(on);
        _request = request;
    }

    void
    decodeBlock(const float *features, std::size_t featureStride, int count,
                const Vec3 &viewDir, DecodedSample *out) override
    {
        const Clock::time_point t0 = Clock::now();
        _decoder.decodeBatchSoA(features, featureStride, count, viewDir,
                                out);
        const Clock::time_point t1 = Clock::now();
        Tally &t = tally();
        ++t.calls;
        t.samples += static_cast<std::uint64_t>(count);
        t.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count();
        if (_recordSpans.load(std::memory_order_relaxed)) {
            Span s;
            s.name = "nerf.decoder.decodeBatchSoA";
            s.id = _rec.newId();
            s.parent = spanParent();
            s.request = _request;
            s.startNs = _rec.toNs(t0);
            s.endNs = _rec.toNs(t1);
            _rec.add(s);
        }
    }

  private:
    const Decoder &_decoder;
    SpanRecorder &_rec;
    std::atomic<bool> _recordSpans{false};
    std::int64_t _request = -1;
};

struct Setup
{
    Scene scene;
    std::unique_ptr<NerfModel> model;
    std::vector<Pose> ring;
};

Setup
setUp(RunResult &r, std::uint64_t seed)
{
    Setup s;
    s.scene = makeScene("lego");
    OrbitSpec orbit;
    orbit.degPerFrame = 360.0 / kRing;
    orbit.eyeJitter = 0.01;
    orbit.targetJitter = 0.01;
    s.ring = orbitPoses(s.scene, seed, kRing, orbit);
    s.model = setUpNgpModel(r, s.scene, s.ring);
    return s;
}

} // namespace

std::unique_ptr<NerfModel>
setUpNgpModel(RunResult &r, const Scene &scene,
              const std::vector<Pose> &warmupPoses)
{
    std::unique_ptr<NerfModel> model;
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        model.reset();
        const Clock::time_point t0 = Clock::now();
        ModelBuildOptions opts;
        opts.preset = ModelPreset::Full;
        model = buildModel(ModelKind::InstantNgp, scene, opts);
        for (int i = 0; i < kWarmupFrames; ++i) {
            const Pose &pose = warmupPoses[(i * 7) % warmupPoses.size()];
            model->render(Camera::fromFov(kRes, kRes, scene.fovYDeg, pose));
        }
        setupS.push_back(secondsBetween(t0, Clock::now()));
    }
    reportSetup(r, setupS);
    return model;
}

namespace {

/** Untraced closed loop: render() frame after frame for @p seconds. */
struct LoopOut
{
    std::vector<double> frameMs;
    std::vector<std::uint64_t> hashes;
    std::vector<StageWork> work;
};

LoopOut
renderLoop(const Setup &s, double seconds)
{
    LoopOut out;
    const Clock::time_point start = Clock::now();
    for (int i = 0; secondsBetween(start, Clock::now()) < seconds; ++i) {
        const Camera cam = cameraFor(s.scene, s.ring[i % kRing]);
        const Clock::time_point t0 = Clock::now();
        RenderResult res = s.model->render(cam);
        out.frameMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        out.hashes.push_back(frameHash(res.image, res.depth));
        out.work.push_back(res.work);
    }
    return out;
}

/** Check a seeded sample of frames against a 1-thread render(). */
void
checkOracle(RunResult &r, const Setup &s, const LoopOut &loop,
            std::uint64_t seed, int threads)
{
    Rng rng(streamSeed(seed, 0x0AC1));
    const int n = static_cast<int>(loop.hashes.size());
    setParallelThreadCount(1);
    for (int k = 0; k < kOracleFrames && n > 0; ++k) {
        const int i = rng.range(0, n - 1);
        const RenderResult ref =
            s.model->render(cameraFor(s.scene, s.ring[i % kRing]));
        if (frameHash(ref.image, ref.depth) != loop.hashes[i])
            r.fail("frame " + std::to_string(i) +
                   " differs from the 1-thread render()");
    }
    setParallelThreadCount(threads);
}

void
reportEndToEnd(RunResult &r, const LoopOut &loop)
{
    // Closed loop: throughput over the time spent inside render(), so
    // the client's own bookkeeping between requests does not count.
    const double frames = static_cast<double>(loop.frameMs.size());
    double busyS = 0.0;
    for (double ms : loop.frameMs)
        busyS += ms / 1e3;
    r.values["frames_per_s"] = frames / busyS;
    r.values["rays_per_s"] = frames * kRes * kRes / busyS;
    // One client request is one frame, so a session is one frame.
    reportLatencies(r, kConst, loop.frameMs, loop.frameMs);
    std::size_t within = 0;
    for (double ms : loop.frameMs)
        within += ms <= kConst.frameLimitMs;
    r.values["slo_frac"] = frames > 0 ? within / frames : 0.0;
    // Every delivered frame is the exact render (checked on a sample).
    r.values["psnr_db"] = r.correct ? kPsnrCapDb : 0.0;
    r.values["delivered_frac"] = 1.0;
}

/**
 * Frame 0 of the traced pass records every decode call as a span, so
 * its renderer self time can be derived from the spans themselves (row
 * span minus its decode child spans). Note it next to the figure the
 * decode tallies give, which is what the per-frame metric uses for the
 * frames whose decode calls are not kept as spans.
 */
void
noteFrame0SelfTime(RunResult &r, const SpanRecorder &rec,
                   std::int64_t tallyNs)
{
    std::vector<Span> rows;
    std::unordered_map<std::uint64_t, std::vector<Span>> decodes;
    for (const Span &sp : rec.collect()) {
        if (sp.request != 0)
            continue;
        if (std::strcmp(sp.name, "nerf.renderer.renderServeRows") == 0)
            rows.push_back(sp);
        else if (std::strcmp(sp.name, "nerf.decoder.decodeBatchSoA") == 0)
            decodes[sp.parent].push_back(sp);
    }
    std::int64_t spanNs = 0;
    for (const Span &row : rows)
        spanNs += selfTimeNs(row, decodes[row.id]);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "frame 0 renderer self time: %.3f ms from spans, %.3f ms "
                  "from decode tallies",
                  spanNs / 1e6, tallyNs / 1e6);
    r.notes.push_back(buf);
}

/** The traced pass: renderServeRows row blocks + timing decode sink. */
void
tracedPass(RunResult &r, const Setup &s, const LoopOut &untraced,
           const RunOptions &opt)
{
    SpanRecorder rec;
    TimingDecodeSink sink(s.model->decoder(), rec);
    std::mutex workMu;
    StageWork work;
    std::int64_t rendererSelfNs = 0;
    std::int64_t selfFrame0Ns = 0;
    TimingDecodeSink::Tally dec;
    std::uint64_t frames = 0;
    std::vector<double> frameMs;

    const SchedulerCounters base = parallelSchedulerCounters();
    const Clock::time_point start = Clock::now();
    for (int i = 0; secondsBetween(start, Clock::now()) < opt.seconds / 2;
         ++i) {
        const Camera cam = cameraFor(s.scene, s.ring[i % kRing]);
        Span frameSpan;
        frameSpan.name = "frame";
        frameSpan.id = rec.newId();
        frameSpan.request = i;
        frameSpan.startNs = rec.nowNs();
        sink.setRecordSpans(i == 0, i);
        Image image(kRes, kRes);
        DepthMap depth(kRes, kRes);
        parallelFor(0, kRes, kRowsPerBlock, [&](std::int64_t y0,
                                                std::int64_t y1) {
            Span rows;
            rows.name = "nerf.renderer.renderServeRows";
            rows.id = rec.newId();
            rows.parent = frameSpan.id;
            rows.request = i;
            TimingDecodeSink::spanParent() = rows.id;
            const TimingDecodeSink::Tally before = TimingDecodeSink::tally();
            rows.startNs = rec.nowNs();
            const StageWork w = s.model->renderServeRows(
                cam, static_cast<int>(y0), static_cast<int>(y1), image,
                depth, &sink);
            rows.endNs = rec.nowNs();
            const TimingDecodeSink::Tally after = TimingDecodeSink::tally();
            rec.add(rows);
            // Decode calls run on this thread inside the row span and
            // do not overlap, so their sum is the children's cover.
            std::lock_guard<std::mutex> lock(workMu);
            work += w;
            rendererSelfNs += rows.durationNs() - (after.ns - before.ns);
            dec.calls += after.calls - before.calls;
            dec.samples += after.samples - before.samples;
            dec.ns += after.ns - before.ns;
        });
        frameSpan.endNs = rec.nowNs();
        rec.add(frameSpan);
        frameMs.push_back(frameSpan.durationNs() / 1e6);
        if (i == 0)
            selfFrame0Ns = rendererSelfNs;
        const std::uint64_t h = frameHash(image, depth);
        if (static_cast<std::size_t>(i) < untraced.hashes.size()) {
            if (h != untraced.hashes[i])
                r.fail("traced frame " + std::to_string(i) +
                       " (renderServeRows) differs from render()");
        } else {
            r.notes.push_back("traced frame " + std::to_string(i) +
                              " has no untraced twin; not compared");
        }
        ++frames;
    }
    const double wallS = secondsBetween(start, Clock::now());
    reportScheduler(r, parallelSchedulerCountersSince(base), wallS,
                    opt.threads, frames);
    noteFrame0SelfTime(r, rec, selfFrame0Ns);
    // The traced call path (renderServeRows over row blocks, the timing
    // sink, spans) against render() on the same frames.
    reportTraceOverhead(r, untraced.frameMs, frameMs);

    const double f = static_cast<double>(std::max<std::uint64_t>(frames, 1));
    r.values["nerf.decoder.calls_per_frame"] = dec.calls / f;
    r.values["nerf.decoder.samples_per_call"] =
        dec.calls ? static_cast<double>(dec.samples) / dec.calls : 0.0;
    r.values["nerf.decoder.ns_per_sample"] =
        dec.samples ? static_cast<double>(dec.ns) / dec.samples : 0.0;
    r.values["nerf.decoder.used_frac"] =
        dec.samples ? static_cast<double>(work.samples) / dec.samples : 0.0;
    r.values["nerf.renderer.self_ms_per_frame"] = rendererSelfNs / 1e6 / f;
    r.values["nerf.renderer.samples_per_ray"] =
        work.rays ? static_cast<double>(work.samples) / work.rays : 0.0;
    r.values["nerf.encoding.bytes_per_sample"] =
        work.samples ? static_cast<double>(work.gatherBytes) / work.samples
                     : 0.0;

    // Layer replays on two frames half an orbit apart.
    Span probeSpan;
    probeSpan.name = "nerf.replay";
    probeSpan.id = rec.newId();
    probeSpan.startNs = rec.nowNs();
    const int block = static_cast<int>(
        std::lround(r.values["nerf.decoder.samples_per_call"]));
    std::vector<ProbeFrame> probeFrames;
    std::uint64_t composited = 0;
    for (int i : {0, kRing / 2}) {
        probeFrames.push_back({s.model.get(), cameraFor(s.scene, s.ring[i])});
        composited += static_cast<std::size_t>(i) < untraced.work.size()
                          ? untraced.work[i].samples
                          : s.model->render(probeFrames.back().camera)
                                .work.samples;
    }
    const NerfProbe probe = probeNerf(probeFrames, block, &rec, probeSpan.id);
    probeSpan.endNs = rec.nowNs();
    rec.add(probeSpan);
    r.values["nerf.sampler.ns_per_ray"] = probe.samplerNsPerRay;
    r.values["nerf.sampler.kept_per_ray"] =
        probe.rays ? static_cast<double>(probe.kept) / probe.rays : 0.0;
    r.values["nerf.encoding.ns_per_sample_block"] =
        probe.encodingNsPerSampleBlock;
    r.values["nerf.encoding.ns_per_sample_dense"] =
        probe.encodingNsPerSampleDense;
    r.values["nerf.decoder.ns_per_sample_dense"] =
        probe.decoderNsPerSampleDense;
    r.values["nerf.renderer.composited_per_kept"] =
        probe.kept ? static_cast<double>(composited) / probe.kept : 0.0;
    r.attempted += frames;
    finishTrace(r, rec, opt);
}

} // namespace

RunResult
runFrameRender(const RunOptions &opt)
{
    RunResult r;
    const Setup s = setUp(r, opt.seed);
    const LoopOut loop = renderLoop(s, opt.seconds);
    r.attempted = loop.frameMs.size();
    if (opt.trace)
        tracedPass(r, s, loop, opt);
    checkOracle(r, s, loop, opt.seed, opt.threads);
    reportEndToEnd(r, loop);
    return r;
}

} // namespace perfbench
