/**
 * @file
 * Self-test of the benchmark's own helpers: the tail-percentile rule,
 * the completion-time rebuild, the seeded generators, span self time,
 * and the work counts the benchmark compares exactly
 * (StageWork, WarpStats, fusion blocks and samples), which must repeat
 * across two runs with the same seed.
 *
 * Build and run from the repository root:
 *   cmake -S perfbench -B .bench_build/perfbench && \
 *     cmake --build .bench_build/perfbench --target perfbench_selftest && \
 *     .bench_build/perfbench/perfbench_selftest
 */

#include <cstdio>
#include <cstdlib>

#include "cicero/sparw.hh"
#include "common/parallel.hh"
#include "inputs.hh"
#include "nerf/models.hh"
#include "serve/render_service.hh"
#include "spans.hh"
#include "util.hh"
#include "workloads.hh"

using namespace cicero;
using namespace perfbench;

namespace {

int gFailures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++gFailures;                                                   \
        }                                                                  \
    } while (0)

void
testPercentileRule()
{
    // Nearest rank: p90 of 1..100 is 90, leaving exactly 10 beyond.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    CHECK(percentile(v, 90) == 90);
    CHECK(percentile(v, 50) == 50);
    CHECK(percentile(v, 100) == 100);
    CHECK(median(v) == 50.5);
    CHECK(samplesBeyond(100, 90) == 10);
    CHECK(samplesBeyond(100, 95) == 5);

    // The highest ladder percentile that leaves >= 10 samples beyond.
    CHECK(highestTailPercentile(100) == 90);
    CHECK(highestTailPercentile(99) == 85);
    CHECK(highestTailPercentile(1000) == 99);
    CHECK(highestTailPercentile(10000) == 99.9);
    CHECK(highestTailPercentile(31) == 66);
    CHECK(highestTailPercentile(27) == 60);
    CHECK(highestTailPercentile(20) == 50);
    CHECK(highestTailPercentile(19) == 0);
    for (std::size_t n = 20; n < 3000; n += 7) {
        const double p = highestTailPercentile(n);
        CHECK(samplesBeyond(n, p) >= kTailMinBeyond);
    }
}

void
testCompletionRebuild()
{
    // Window 2: frames 0 and 1 become eligible at admission, frame f
    // when frame f - 2 completes.
    const std::vector<double> lat = {0.1, 0.2, 0.3, 0.4, 0.5};
    const std::vector<double> done = rebuildCompletions(1.0, lat, 2);
    const double want[] = {1.1, 1.2, 1.4, 1.6, 1.9};
    CHECK(done.size() == 5);
    for (int i = 0; i < 5; ++i)
        CHECK(std::abs(done[i] - want[i]) < 1e-12);
    // Window 1 is a serial chain: completions are running sums.
    const std::vector<double> serial = rebuildCompletions(0.0, lat, 1);
    CHECK(std::abs(serial.back() - 1.5) < 1e-12);
    // A window wider than the clip: every frame eligible at admission.
    const std::vector<double> wide = rebuildCompletions(2.0, lat, 8);
    for (int i = 0; i < 5; ++i)
        CHECK(std::abs(wide[i] - (2.0 + lat[i])) < 1e-12);

    // Busy time: overlaps count once, gaps not at all, in any order.
    CHECK(unionLength({}) == 0.0);
    CHECK(unionLength({{3.0, 4.0}, {0.0, 1.0}, {0.5, 2.0}}) == 3.0);
    CHECK(unionLength({{0.0, 5.0}, {1.0, 2.0}, {4.0, 4.0}}) == 5.0);
}

void
testSchedule()
{
    const std::vector<double> a = poissonSchedule(7, 12.0, 8.0);
    const std::vector<double> b = poissonSchedule(7, 12.0, 8.0);
    const std::vector<double> c = poissonSchedule(8, 12.0, 8.0);
    CHECK(a == b);
    CHECK(a != c);
    CHECK(a.size() == 96);
    CHECK(std::is_sorted(a.begin(), a.end()));
    CHECK(a.front() >= 0.0 && a.back() < 8.0);
    // Conditioned per one-second bin: 12 arrivals in each.
    for (int bin = 0; bin < 8; ++bin)
        CHECK(std::count_if(a.begin(), a.end(), [bin](double t) {
                  return t >= bin && t < bin + 1;
              }) == 12);

    const Scene scene = makeScene("lego");
    const std::vector<SessionSpec> s1 =
        makeServeSessions(scene, 3, 5.2, 10.0);
    const std::vector<SessionSpec> s2 =
        makeServeSessions(scene, 3, 5.2, 10.0);
    CHECK(s1.size() == 52 && s1.size() == s2.size());
    int tensorf = 0, longClips = 0, frames = 0;
    for (std::size_t i = 0; i < s1.size() && i < s2.size(); ++i) {
        CHECK(s1[i].kind == s2[i].kind && s1[i].res == s2[i].res &&
              s1[i].arrivalS == s2[i].arrivalS &&
              s1[i].trajectory.size() == s2[i].trajectory.size());
        for (std::size_t f = 0; f < s1[i].trajectory.size(); ++f)
            CHECK(s1[i].trajectory[f].pos.x == s2[i].trajectory[f].pos.x &&
                  s1[i].trajectory[f].pos.y == s2[i].trajectory[f].pos.y &&
                  s1[i].trajectory[f].pos.z == s2[i].trajectory[f].pos.z);
        tensorf += s1[i].kind == ModelKind::TensoRF;
        longClips += s1[i].trajectory.size() >= 30;
        frames += static_cast<int>(s1[i].trajectory.size());
    }
    // Dealt in blocks: exact proportions, and nearly the same total
    // work for every seed (48 short clips of mean 6 frames, 4 long of
    // mean 32; only the last, partial blocks of lengths may differ).
    CHECK(tensorf == 13);
    CHECK(longClips == 4);
    CHECK(std::abs(frames - 416) <= 5);
    int frames4 = 0;
    for (const SessionSpec &s : makeServeSessions(scene, 4, 5.2, 10.0))
        frames4 += static_cast<int>(s.trajectory.size());
    CHECK(std::abs(frames4 - 416) <= 5);
}

void
testSpans()
{
    SpanRecorder rec;
    Span parent;
    parent.name = "parent";
    parent.id = rec.newId();
    parent.startNs = 0;
    parent.endNs = 100;
    Span a = parent, b = parent;
    a.name = "a";
    a.id = rec.newId();
    a.parent = parent.id;
    a.startNs = 10;
    a.endNs = 40;
    b.name = "b";
    b.id = rec.newId();
    b.parent = parent.id;
    b.startNs = 30; // overlaps a: the union counts once
    b.endNs = 60;
    CHECK(selfTimeNs(parent, {a, b}) == 50);
    CHECK(selfTimeNs(parent, {}) == 100);
    {
        ScopedSpan outer(&rec, "outer", 0, 1);
        ScopedSpan inner(&rec, "inner", outer.id(), 1);
    }
    const std::vector<Span> all = rec.collect();
    CHECK(all.size() == 2);
    // Sorted by start: the outer span, then the inner one naming it.
    CHECK(all.size() == 2 && all[0].parent == 0 &&
          all[1].parent == all[0].id);
}

void
testSparwCountsRepeat()
{
    const Scene scene = makeScene("lego");
    const std::unique_ptr<NerfModel> model =
        buildModel(ModelKind::DirectVoxGO, scene);
    OrbitSpec orbit;
    orbit.degPerFrame = 20.0 / 30.0;
    const std::vector<Pose> clip = orbitPoses(scene, 5, 12, orbit);
    SparwPipeline pipeline(*model, Camera::fromFov(48, 48, scene.fovYDeg),
                           SparwConfig{});
    const SparwRun a = pipeline.run(clip);
    const SparwRun b = pipeline.run(clip);
    CHECK(a.frames.size() == 12 && b.frames.size() == 12);
    for (std::size_t f = 0; f < a.frames.size() && f < b.frames.size();
         ++f) {
        CHECK(sameWarp(a.frames[f].warpStats, b.frames[f].warpStats));
        CHECK(sameWork(a.frames[f].sparseWork, b.frames[f].sparseWork));
        CHECK(frameHash(a.frames[f].image, a.frames[f].depth) ==
              frameHash(b.frames[f].image, b.frames[f].depth));
    }
}

/** Fusion blocks/samples and per-frame StageWork of a tiny serve mix. */
struct ServeCounts
{
    std::uint64_t blocks = 0;
    std::uint64_t samples = 0;
    std::vector<StageWork> work;
};

ServeCounts
serveOnce(const std::vector<SessionSpec> &specs)
{
    RenderService service;
    std::vector<int> ids;
    for (const SessionSpec &s : specs) {
        ServeSessionConfig cfg;
        cfg.model.kind = s.kind;
        cfg.width = cfg.height = s.res;
        cfg.trajectory = s.trajectory;
        ids.push_back(service.admit(cfg));
    }
    ServeCounts out;
    for (int id : ids)
        for (const ServeFrame &f : service.wait(id).frames)
            out.work.push_back(f.work);
    const FusionStats fusion = service.cache().fusionStatsTotal();
    out.blocks = fusion.blocks;
    out.samples = fusion.samples;
    return out;
}

void
testServeCountsRepeat()
{
    const Scene scene = makeScene("lego");
    std::vector<SessionSpec> specs = makeServeSessions(scene, 11, 4.0, 1.0);
    CHECK(specs.size() == 4);
    for (SessionSpec &s : specs)
        s.res = 32; // keep the self-test quick; the mix is unchanged
    const ServeCounts a = serveOnce(specs);
    const ServeCounts b = serveOnce(specs);
    CHECK(a.blocks > 0 && a.blocks == b.blocks);
    CHECK(a.samples == b.samples);
    CHECK(a.work.size() == b.work.size());
    for (std::size_t i = 0; i < a.work.size() && i < b.work.size(); ++i)
        CHECK(sameWork(a.work[i], b.work[i]));
}

} // namespace

int
main()
{
    setParallelThreadCount(std::min(4, benchThreads()));
    testPercentileRule();
    testCompletionRebuild();
    testSchedule();
    testSpans();
    testSparwCountsRepeat();
    testServeCountsRepeat();
    if (gFailures) {
        std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                     gFailures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
