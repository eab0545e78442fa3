#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <thread>

#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"frames_per_s", "1/s"},     {"rays_per_s", "1/s"},
        {"frame_p50_ms", "ms"},      {"slo_frac", "ratio"},
        {"psnr_db", "dB"},           {"delivered_frac", "ratio"},
        {"setup_s", "s"},            {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"nerf.sampler.ns_per_ray", "ns"},
        {"nerf.sampler.kept_per_ray", "count"},
        {"nerf.encoding.ns_per_sample_block", "ns"},
        {"nerf.encoding.ns_per_sample_dense", "ns"},
        {"nerf.encoding.bytes_per_sample", "B"},
        {"nerf.decoder.calls_per_frame", "count"},
        {"nerf.decoder.samples_per_call", "count"},
        {"nerf.decoder.ns_per_sample", "ns"},
        {"nerf.decoder.ns_per_sample_dense", "ns"},
        {"nerf.decoder.used_frac", "ratio"},
        {"nerf.renderer.self_ms_per_frame", "ms"},
        {"nerf.renderer.samples_per_ray", "count"},
        {"nerf.renderer.composited_per_kept", "ratio"},
        {"cicero.sparw.reference_ms", "ms"},
        {"cicero.sparw.sparse_ms_per_frame", "ms"},
        {"cicero.sparw.reference_sample_frac", "ratio"},
        {"cicero.warp.ms_per_frame", "ms"},
        {"cicero.warp.warped_frac", "ratio"},
        {"cicero.warp.rerender_frac", "ratio"},
        {"serve.admit_us", "us"},
        {"serve.queue_wait_ms_p50", "ms"},
        {"serve.queue_wait_ms_tail", "ms"},
        {"serve.render_ms_p50", "ms"},
        {"serve.shed_admissions", "count"},
        {"serve.frame_retries", "count"},
        {"serve.frames_failed", "count"},
        {"serve.fusion.samples_per_pass", "count"},
        {"serve.fusion.blocks_per_pass", "count"},
        {"serve.fusion.cross_session_frac", "ratio"},
        {"serve.model_cache.misses", "count"},
        {"parallel.tasks_per_frame", "count"},
        {"parallel.steals_per_frame", "count"},
        {"parallel.idle_frac", "ratio"},
        {"parallel.idle_within_capacity", "count"},
        {"parallel.dep_stall_ms_per_frame", "ms"},
        {"bench.generator.lag_ms_p50", "ms"},
        {"bench.generator.lag_ms_max", "ms"},
        {"bench.trace_overhead_frac", "ratio"},
        {"client.frame_tail_ms", "ms"},
        {"client.session_p50_ms", "ms"},
        {"client.session_tail_ms", "ms"},
    };
    return specs;
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

int
benchThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return n;
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

void
noteTail(RunResult &r, const char *what, std::size_t n, double pct)
{
    const std::size_t beyond = samplesBeyond(n, pct);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s: p%g over %zu samples, %zu beyond it (highest with "
                  "10 beyond: p%g)%s",
                  what, pct, n, beyond, highestTailPercentile(n),
                  beyond >= kTailMinBeyond ? "" : " UNDER-SAMPLED");
    r.notes.push_back(buf);
}

} // namespace

void
reportLatencies(RunResult &r, const WorkloadConstants &k,
                const std::vector<double> &frameMs,
                const std::vector<double> &sessionMs)
{
    r.values["frame_p50_ms"] = median(frameMs);
    r.values["client.frame_tail_ms"] = percentile(frameMs, k.frameTailPct);
    r.values["client.session_p50_ms"] = median(sessionMs);
    r.values["client.session_tail_ms"] =
        percentile(sessionMs, k.sessionTailPct);
    noteTail(r, "client.frame_tail_ms", frameMs.size(), k.frameTailPct);
    noteTail(r, "client.session_tail_ms", sessionMs.size(),
             k.sessionTailPct);
}

void
reportScheduler(RunResult &r, const cicero::SchedulerCounters &d,
                double wallS, int threads, std::uint64_t frames)
{
    const double f = static_cast<double>(std::max<std::uint64_t>(frames, 1));
    const double capacityNs = static_cast<double>(threads) * wallS * 1e9;
    r.values["parallel.tasks_per_frame"] = d.tasksExecuted / f;
    r.values["parallel.steals_per_frame"] = d.steals / f;
    // Raw, unclamped: idleNanos can exceed threads x wall (a sleep is
    // credited whole at wake-up), and the check below reports it.
    r.values["parallel.idle_frac"] =
        capacityNs > 0 ? d.idleNanos / capacityNs : 0.0;
    const bool within = static_cast<double>(d.idleNanos) <= capacityNs;
    r.values["parallel.idle_within_capacity"] = within ? 1.0 : 0.0;
    r.values["parallel.dep_stall_ms_per_frame"] = d.depStallNanos / 1e6 / f;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "idle check: scheduler idle %.1f ms vs threads x wall "
                  "%.1f ms: %s",
                  d.idleNanos / 1e6, capacityNs / 1e6,
                  within ? "ok" : "VIOLATED (idle over-reported)");
    r.notes.push_back(buf);
}

void
reportTraceOverhead(RunResult &r, const std::vector<double> &untracedMs,
                    const std::vector<double> &tracedMs)
{
    const std::size_t n = std::min(untracedMs.size(), tracedMs.size());
    double untraced = 0.0;
    double traced = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        untraced += untracedMs[i];
        traced += tracedMs[i];
    }
    r.values["bench.trace_overhead_frac"] =
        traced > 0 ? 1.0 - untraced / traced : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "trace overhead over the first %zu requests: %.1f ms "
                  "traced vs %.1f ms untraced",
                  n, traced, untraced);
    r.notes.push_back(buf);
}

void
finishTrace(RunResult &r, SpanRecorder &rec, const RunOptions &opt)
{
    const std::vector<Span> spans = rec.collect();
    if (!opt.tracePath.empty() &&
        !SpanRecorder::writeChromeTrace(spans, opt.tracePath))
        r.fail("cannot write span file " + opt.tracePath);
    r.notes.push_back("spans: " + std::to_string(spans.size()) +
                      (opt.tracePath.empty() ? std::string()
                                             : " written to " +
                                                   opt.tracePath));
}

void
reportSetup(RunResult &r, const std::vector<double> &setupS)
{
    r.values["setup_s"] = median(setupS);
    std::string all = "setup repetitions (s):";
    for (double s : setupS) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.3f", s);
        all += buf;
    }
    r.notes.push_back(all);
}

} // namespace perfbench
