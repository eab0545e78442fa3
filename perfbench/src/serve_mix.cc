/**
 * @file
 * serve_mix: an open loop of client sessions into RenderService with
 * the default RenderServiceConfig (fusion, fan-out, shedding and
 * maxSessions untouched). Sessions arrive on a seeded Poisson schedule
 * at one fixed rate; each draws a model (DirectVoxGO-Fast 3 of 4,
 * TensoRF-Fast 1 of 4), a resolution (48, 64 or 96 square) and a
 * heavy-tailed clip length (mostly 4-8 frames, one in 13 30-34).
 * Admission, the fused cross-session decode queue, the model cache and
 * the runAfter frame chains only run here.
 *
 * Open-loop latencies start at the scheduled arrival, so a stalled
 * generator or a full service shows in session latency; the generator
 * reports how late it admitted. Throughput is taken over the time the
 * service had a frame outstanding, not over the schedule, so it moves
 * with the service's speed below saturation too. Every non-shed frame
 * is checked bit for bit against a solo render() of its pose.
 *
 * Nothing inside the loop is instrumented, so the traced run drives
 * the same loop and rebuilds its spans afterwards from the latencies
 * the service reported.
 */

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "common/parallel.hh"
#include "inputs.hh"
#include "nerf_probe.hh"
#include "serve/render_service.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace cicero;

namespace perfbench {

namespace {

/**
 * Arrival rate in sessions/s: about 40% of the capacity measured on a
 * 4-core x86 host, which leaves room for the host to slow down 2.5x
 * before the service saturates (see perfbench/README.md, "Calibration").
 */
constexpr double kRatePerS = 4.0;
constexpr WorkloadConstants kConst{95.0, 75.0, 100.0};
constexpr int kSetupReps = 3;
constexpr double kPsnrCapDb = 60.0;
constexpr int kProbeSessionsPerModel = 2;
/**
 * One arrival in this many asks for a long clip: 3 in a 10-s run at
 * kRatePerS, one per resolution and one per long length, so every seed
 * offers nearly the same pixels (a fourth long clip at a random
 * resolution would move them by about 10%).
 */
constexpr std::size_t kLongEvery = 13;

ModelKey
keyFor(ModelKind kind)
{
    ModelKey k;
    k.scene = "lego";
    k.kind = kind;
    k.preset = ModelPreset::Fast;
    return k;
}

} // namespace

std::vector<SessionSpec>
makeServeSessions(const Scene &scene, std::uint64_t seed, double rate,
                  double horizonS)
{
    const std::vector<double> arrivals =
        poissonSchedule(seed, rate, horizonS);
    const std::size_t n = arrivals.size();
    Rng rng(streamSeed(seed, 0x5E55));
    // Every kLongEvery-th arrival asks for a long clip, and the rest of
    // the mix is dealt in shuffled blocks along the arrival order, so every
    // stretch of the schedule carries the same proportions: for short
    // and long clips alike 1 of every 4 TensoRF, each resolution once
    // per 3 and clip lengths cycling through their range. Long clips
    // dominate the load, so spacing them evenly and dealing them
    // separately keeps every seed's heavy sessions alike.
    std::vector<int> longClip(n);
    std::size_t longs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        longClip[i] = i % kLongEvery == kLongEvery / 2;
        longs += longClip[i];
    }
    struct Deck
    {
        std::vector<int> tensorf, res, len;
    };
    auto deal = [&rng](std::size_t count, std::vector<int> lengths) {
        return Deck{dealBlocks<int>(rng, count, {0, 0, 0, 1}),
                    dealBlocks<int>(rng, count, {48, 64, 96}),
                    dealBlocks<int>(rng, count, lengths)};
    };
    const Deck shortDeck = deal(n - longs, {4, 5, 6, 7, 8});
    const Deck longDeck = deal(longs, {30, 32, 34});
    OrbitSpec orbit;
    orbit.degPerFrame = 20.0 / 30.0;
    orbit.eyeJitter = 0.005;
    orbit.targetJitter = 0.005;
    std::vector<SessionSpec> out(n);
    std::size_t next[2] = {0, 0};
    for (std::size_t i = 0; i < n; ++i) {
        SessionSpec &s = out[i];
        const Deck &deck = longClip[i] ? longDeck : shortDeck;
        const std::size_t k = next[longClip[i]]++;
        s.kind = deck.tensorf[k] ? ModelKind::TensoRF : ModelKind::DirectVoxGO;
        s.res = deck.res[k];
        const int frames = deck.len[k];
        s.trajectory =
            orbitPoses(scene, streamSeed(seed, 0x1000 + i), frames, orbit);
        s.arrivalS = arrivals[i];
    }
    return out;
}

namespace {

/** What the loop observed for one session. */
struct SessionOut
{
    double admitCallS = 0.0; //!< from the loop start
    double admitReturnS = 0.0;
    bool admitted = false;
    bool shed = false;
    std::vector<double> latencyS; //!< per frame, as the service reports
    std::vector<double> renderS;
    std::vector<double> doneS; //!< rebuilt completions, from the loop start
    double lastS = 0.0;        //!< session done (and admit() returned)
    std::vector<char> ok;         //!< frame delivered
    std::vector<std::uint64_t> hashes;
    std::vector<StageWork> work;
};

struct LoopOut
{
    std::vector<SessionOut> sessions;
    double wallS = 0.0; //!< time 0 of the schedule to the last completion
    double busyS = 0.0; //!< time with at least one frame eligible, not done
    ServiceCounters counters; //!< delta over the loop
    FusionStats fusion;       //!< delta over the loop
    std::uint64_t cacheMisses = 0;
    SchedulerCounters sched; //!< delta over the loop
    Clock::time_point start; //!< time 0 of the schedule
};

/** Server side of the benchmark: the service plus warm model leases. */
struct Server
{
    std::unique_ptr<RenderService> service;
    std::vector<SharedModelCache::Lease> leases; //!< keep models resident

    const NerfModel &
    model(ModelKind kind) const
    {
        for (const auto &l : leases)
            if (l.key().kind == kind)
                return l.model();
        throw std::logic_error("serve_mix: model not resident");
    }

    void
    reset()
    {
        leases.clear(); // leases before the service that owns the cache
        service.reset();
    }
};

void
setUp(RunResult &r, Server &srv, const Scene &scene)
{
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        srv.reset();
        const Clock::time_point t0 = Clock::now();
        srv.service = std::make_unique<RenderService>();
        for (ModelKind kind : {ModelKind::DirectVoxGO, ModelKind::TensoRF})
            srv.leases.push_back(srv.service->cache().acquire(keyFor(kind)));
        // Warm-up: one short session per model through the service.
        for (ModelKind kind : {ModelKind::DirectVoxGO, ModelKind::TensoRF}) {
            ServeSessionConfig cfg;
            cfg.model = keyFor(kind);
            cfg.width = cfg.height = 64;
            OrbitSpec orbit;
            orbit.degPerFrame = 3.0;
            cfg.trajectory = orbitPoses(scene, 0x3A3A, 8, orbit);
            srv.service->wait(srv.service->admit(cfg));
        }
        setupS.push_back(secondsBetween(t0, Clock::now()));
    }
    reportSetup(r, setupS);
}

/**
 * Drive one open loop: the calling thread admits sessions on schedule,
 * a collector thread waits for them in admission order.
 */
LoopOut
openLoop(Server &srv, const std::vector<SessionSpec> &specs)
{
    RenderService &service = *srv.service;
    LoopOut out;
    out.sessions.resize(specs.size());
    const ServiceCounters counters0 = service.counters();
    const FusionStats fusion0 = service.cache().fusionStatsTotal();
    const std::uint64_t misses0 = service.cache().stats().misses;
    const SchedulerCounters sched0 = parallelSchedulerCounters();

    std::mutex mu; // guards queue and generatorDone
    std::condition_variable cv;
    std::deque<std::pair<std::size_t, int>> queue; // (session, id)
    bool generatorDone = false;

    std::thread collector([&] {
        for (;;) {
            std::pair<std::size_t, int> item;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return !queue.empty() || generatorDone; });
                if (queue.empty())
                    return;
                item = queue.front();
                queue.pop_front();
            }
            SessionOut &so = out.sessions[item.first];
            const SessionSpec &spec = specs[item.first];
            const int n = static_cast<int>(spec.trajectory.size());
            for (int f = 0; f < n; ++f) {
                try {
                    const ServeFrame fr = service.waitFrame(item.second, f);
                    so.latencyS[f] = fr.latencyS;
                    so.renderS[f] = fr.renderS;
                    so.hashes[f] = frameHash(fr.image, fr.depth);
                    so.work[f] = fr.work;
                    so.ok[f] = 1;
                    so.shed = fr.image.width() != spec.res;
                } catch (const std::exception &) {
                    so.ok[f] = 0;
                }
            }
            try {
                so.shed = so.shed || service.wait(item.second).downsampled;
            } catch (const std::exception &) {
            }
        }
    });

    const Clock::time_point start = Clock::now();
    out.start = start;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const SessionSpec &spec = specs[i];
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(spec.arrivalS)));
        ServeSessionConfig cfg;
        cfg.model = keyFor(spec.kind);
        cfg.width = cfg.height = spec.res;
        cfg.trajectory = spec.trajectory;
        SessionOut &so = out.sessions[i];
        const std::size_t n = spec.trajectory.size();
        so.latencyS.assign(n, 0.0);
        so.renderS.assign(n, 0.0);
        so.ok.assign(n, 0);
        so.hashes.assign(n, 0);
        so.work.assign(n, StageWork{});
        so.admitCallS = secondsBetween(start, Clock::now());
        int id = -1;
        try {
            id = service.tryAdmit(cfg);
        } catch (const std::exception &) {
            // A refused admission counts as failed frames below.
        }
        so.admitReturnS = secondsBetween(start, Clock::now());
        so.admitted = id >= 0;
        if (id >= 0) {
            std::lock_guard<std::mutex> lock(mu);
            queue.emplace_back(i, id);
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        generatorDone = true;
    }
    cv.notify_one();
    collector.join();
    out.sched = parallelSchedulerCountersSince(sched0);

    // Wall time ends at the last rebuilt frame completion; busy time is
    // the union of the frames' eligible-to-done intervals.
    const int window = service.config().defaultInflightWindow;
    std::vector<std::pair<double, double>> inFlight;
    for (SessionOut &so : out.sessions) {
        if (!so.admitted)
            continue;
        so.doneS = rebuildCompletions(so.admitCallS, so.latencyS, window);
        so.lastS = so.admitReturnS;
        for (std::size_t f = 0; f < so.doneS.size(); ++f) {
            so.lastS = std::max(so.lastS, so.doneS[f]);
            inFlight.emplace_back(so.doneS[f] - so.latencyS[f], so.doneS[f]);
        }
        out.wallS = std::max(out.wallS, so.lastS);
    }
    out.busyS = unionLength(std::move(inFlight));

    const ServiceCounters c1 = service.counters();
    out.counters.admitted = c1.admitted - counters0.admitted;
    out.counters.rejected = c1.rejected - counters0.rejected;
    out.counters.framesCompleted =
        c1.framesCompleted - counters0.framesCompleted;
    out.counters.frameRetries = c1.frameRetries - counters0.frameRetries;
    out.counters.framesFailed = c1.framesFailed - counters0.framesFailed;
    out.counters.framesSkipped = c1.framesSkipped - counters0.framesSkipped;
    out.counters.shedAdmissions =
        c1.shedAdmissions - counters0.shedAdmissions;
    const FusionStats fusion1 = service.cache().fusionStatsTotal();
    out.fusion.blocks = fusion1.blocks - fusion0.blocks;
    out.fusion.samples = fusion1.samples - fusion0.samples;
    out.fusion.passes = fusion1.passes - fusion0.passes;
    out.fusion.crossSessionPasses =
        fusion1.crossSessionPasses - fusion0.crossSessionPasses;
    out.cacheMisses = service.cache().stats().misses - misses0;
    return out;
}

/** Frame and pixel totals of a loop (delivered, non-shed frames). */
struct Totals
{
    std::uint64_t attempted = 0;
    std::uint64_t delivered = 0;
    std::uint64_t failed = 0; //!< failed, skipped, shed or rejected
    double pixels = 0.0;
};

Totals
totals(const std::vector<SessionSpec> &specs, const LoopOut &loop)
{
    Totals t;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const SessionOut &so = loop.sessions[i];
        const std::size_t n = specs[i].trajectory.size();
        t.attempted += n;
        for (std::size_t f = 0; f < n; ++f) {
            if (so.admitted && !so.shed && so.ok[f]) {
                ++t.delivered;
                t.pixels += static_cast<double>(specs[i].res) * specs[i].res;
            } else {
                ++t.failed;
            }
        }
    }
    return t;
}

/** Every delivered, non-shed frame against a solo render() of its pose. */
void
checkFrames(RunResult &r, const Server &srv, const Scene &scene,
            const std::vector<SessionSpec> &specs, const LoopOut &loop)
{
    std::mutex mu;
    std::size_t mismatches = 0;
    std::string first;
    parallelForOuter(static_cast<std::int64_t>(specs.size()),
                     [&](std::int64_t i) {
        const SessionSpec &spec = specs[i];
        const SessionOut &so = loop.sessions[i];
        if (!so.admitted || so.shed)
            return;
        const NerfModel &model = srv.model(spec.kind);
        for (std::size_t f = 0; f < spec.trajectory.size(); ++f) {
            if (!so.ok[f])
                continue;
            const RenderResult solo = model.render(Camera::fromFov(
                spec.res, spec.res, scene.fovYDeg, spec.trajectory[f]));
            if (frameHash(solo.image, solo.depth) != so.hashes[f]) {
                std::lock_guard<std::mutex> lock(mu);
                if (mismatches++ == 0)
                    first = "session " + std::to_string(i) + " frame " +
                            std::to_string(f);
            }
        }
    });
    if (mismatches)
        r.fail(std::to_string(mismatches) +
               " served frames differ from their solo render (first: " +
               first + ")");
}

void
reportEndToEnd(RunResult &r, const std::vector<SessionSpec> &specs,
               const LoopOut &loop)
{
    const Totals t = totals(specs, loop);
    r.values["frames_per_s"] = t.delivered / loop.busyS;
    r.values["rays_per_s"] = t.pixels / loop.busyS;
    std::vector<double> frameMs;
    std::vector<double> sessionMs;
    std::size_t within = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const SessionOut &so = loop.sessions[i];
        if (!so.admitted)
            continue;
        for (std::size_t f = 0; f < so.ok.size(); ++f) {
            if (!so.ok[f])
                continue;
            frameMs.push_back(so.latencyS[f] * 1e3);
            within += !so.shed && so.latencyS[f] * 1e3 <= kConst.frameLimitMs;
        }
        sessionMs.push_back((so.lastS - specs[i].arrivalS) * 1e3);
    }
    reportLatencies(r, kConst, frameMs, sessionMs);
    r.values["slo_frac"] =
        t.attempted ? static_cast<double>(within) / t.attempted : 0.0;
    r.values["psnr_db"] = r.correct ? kPsnrCapDb : 0.0;
    r.values["delivered_frac"] =
        t.attempted ? static_cast<double>(t.delivered) / t.attempted : 0.0;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "offered: %zu sessions, %llu frames over %.2f s, service "
                  "busy %.2f s; shed admissions %llu",
                  specs.size(), static_cast<unsigned long long>(t.attempted),
                  loop.wallS, loop.busyS,
                  static_cast<unsigned long long>(
                      loop.counters.shedAdmissions));
    r.notes.push_back(buf);
}

/** Rebuilt session / admit / frame spans of a traced loop. */
void
recordSessionSpans(SpanRecorder &rec, const std::vector<SessionSpec> &specs,
                   const LoopOut &loop)
{
    const std::int64_t base = rec.toNs(loop.start);
    auto ns = [base](double s) {
        return base + static_cast<std::int64_t>(s * 1e9);
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const SessionOut &so = loop.sessions[i];
        if (!so.admitted)
            continue;
        const int lane = 1000 + static_cast<int>(i);
        Span session;
        session.name = "serve.session";
        session.id = rec.newId();
        session.request = static_cast<std::int64_t>(i);
        session.startNs = ns(specs[i].arrivalS);
        session.endNs = std::max(ns(so.lastS), session.startNs);
        rec.addOnLane(session, lane);
        Span admit = session;
        admit.name = "serve.admit";
        admit.id = rec.newId();
        admit.parent = session.id;
        admit.startNs = ns(so.admitCallS);
        admit.endNs = ns(so.admitReturnS);
        rec.addOnLane(admit, lane);
        for (std::size_t f = 0; f < so.doneS.size(); ++f) {
            Span frame = session;
            frame.name = "serve.frame";
            frame.id = rec.newId();
            frame.parent = session.id;
            frame.endNs = ns(so.doneS[f]);
            frame.startNs = frame.endNs -
                            static_cast<std::int64_t>(so.latencyS[f] * 1e9);
            rec.addOnLane(frame, lane);
        }
    }
}

void
reportLayers(RunResult &r, const Server &srv, const Scene &scene,
             const std::vector<SessionSpec> &specs, const LoopOut &loop,
             SpanRecorder &rec, int threads)
{
    const Totals t = totals(specs, loop);
    // The loop carries no instrumentation (its spans are rebuilt after
    // it), so tracing adds nothing to it.
    r.values["bench.trace_overhead_frac"] = 0.0;
    r.notes.push_back("trace overhead: none, the loop is not instrumented");
    reportScheduler(r, loop.sched, loop.wallS, threads, t.delivered);

    std::vector<double> admitUs, lagMs, queueMs, renderMs;
    StageWork work;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const SessionOut &so = loop.sessions[i];
        lagMs.push_back((so.admitCallS - specs[i].arrivalS) * 1e3);
        if (!so.admitted)
            continue;
        admitUs.push_back((so.admitReturnS - so.admitCallS) * 1e6);
        for (std::size_t f = 0; f < so.ok.size(); ++f) {
            if (!so.ok[f])
                continue;
            queueMs.push_back((so.latencyS[f] - so.renderS[f]) * 1e3);
            renderMs.push_back(so.renderS[f] * 1e3);
            work += so.work[f];
        }
    }
    r.values["serve.admit_us"] = median(admitUs);
    r.values["serve.queue_wait_ms_p50"] = median(queueMs);
    r.values["serve.queue_wait_ms_tail"] =
        percentile(queueMs, kConst.frameTailPct);
    r.values["serve.render_ms_p50"] = median(renderMs);
    r.values["serve.shed_admissions"] =
        static_cast<double>(loop.counters.shedAdmissions);
    r.values["serve.frame_retries"] =
        static_cast<double>(loop.counters.frameRetries);
    r.values["serve.frames_failed"] =
        static_cast<double>(loop.counters.framesFailed +
                            loop.counters.framesSkipped);
    const FusionStats &fu = loop.fusion;
    const double passes = static_cast<double>(fu.passes);
    r.values["serve.fusion.samples_per_pass"] =
        passes ? fu.samples / passes : 0;
    r.values["serve.fusion.blocks_per_pass"] = passes ? fu.blocks / passes : 0;
    r.values["serve.fusion.cross_session_frac"] =
        passes ? fu.crossSessionPasses / passes : 0;
    r.values["serve.model_cache.misses"] =
        static_cast<double>(loop.cacheMisses);
    r.values["bench.generator.lag_ms_p50"] = median(lagMs);
    r.values["bench.generator.lag_ms_max"] =
        lagMs.empty() ? 0.0 : *std::max_element(lagMs.begin(), lagMs.end());

    // Decode-side counts come from the fusion queue every decode of the
    // loop went through; there is no per-call timing without touching
    // the library, so nerf.decoder.ns_per_sample stays 0 here.
    const double frames =
        static_cast<double>(std::max<std::uint64_t>(t.delivered, 1));
    r.values["nerf.decoder.calls_per_frame"] = fu.blocks / frames;
    r.values["nerf.decoder.samples_per_call"] =
        fu.blocks ? static_cast<double>(fu.samples) / fu.blocks : 0.0;
    r.values["nerf.decoder.used_frac"] =
        fu.samples ? static_cast<double>(work.samples) / fu.samples : 0.0;
    r.values["nerf.renderer.samples_per_ray"] =
        work.rays ? static_cast<double>(work.samples) / work.rays : 0.0;
    r.values["nerf.encoding.bytes_per_sample"] =
        work.samples ? static_cast<double>(work.gatherBytes) / work.samples
                     : 0.0;

    // Layer replays on the first frames of the first sessions per model.
    std::vector<ProbeFrame> probeFrames;
    std::uint64_t composited = 0;
    for (ModelKind kind : {ModelKind::DirectVoxGO, ModelKind::TensoRF}) {
        int taken = 0;
        for (std::size_t i = 0;
             i < specs.size() && taken < kProbeSessionsPerModel; ++i) {
            const SessionOut &so = loop.sessions[i];
            if (specs[i].kind != kind || !so.admitted || so.shed || !so.ok[0])
                continue;
            probeFrames.push_back(
                {&srv.model(kind),
                 Camera::fromFov(specs[i].res, specs[i].res, scene.fovYDeg,
                                 specs[i].trajectory[0])});
            composited += so.work[0].samples;
            ++taken;
        }
    }
    Span probeSpan;
    probeSpan.name = "nerf.replay";
    probeSpan.id = rec.newId();
    probeSpan.startNs = rec.nowNs();
    const int block = static_cast<int>(
        std::lround(r.values["nerf.decoder.samples_per_call"]));
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
}

} // namespace

RunResult
runServeMix(const RunOptions &opt)
{
    RunResult r;
    const Scene scene = makeScene("lego");
    Server srv;
    setUp(r, srv, scene);
    const std::vector<SessionSpec> specs =
        makeServeSessions(scene, opt.seed, kRatePerS, opt.seconds);
    const LoopOut loop = openLoop(srv, specs);
    const Totals t = totals(specs, loop);
    r.attempted = t.attempted;
    r.failed = t.failed;
    if (opt.trace) {
        SpanRecorder rec;
        recordSessionSpans(rec, specs, loop);
        reportLayers(r, srv, scene, specs, loop, rec, opt.threads);
        finishTrace(r, rec, opt);
    }
    checkFrames(r, srv, scene, specs, loop);
    reportEndToEnd(r, specs, loop);
    srv.reset();
    return r;
}

} // namespace perfbench
