#include "nerf_probe.hh"

#include <algorithm>

#include "nerf/decoder.hh"
#include "spans.hh"
#include "util.hh"

using namespace cicero;

namespace perfbench {

namespace {

constexpr int kRepeats = 3;

/** Median over kRepeats of @p fn's wall time in ns. */
template <typename Fn>
double
medianNs(Fn &&fn)
{
    std::vector<double> ns;
    for (int i = 0; i < kRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn();
        ns.push_back(secondsBetween(t0, Clock::now()) * 1e9);
    }
    return median(ns);
}

} // namespace

NerfProbe
probeNerf(const std::vector<ProbeFrame> &frames, int blockSize,
          SpanRecorder *rec, std::uint64_t parent)
{
    NerfProbe p;
    blockSize = std::max(1, blockSize);
    double samplerNs = 0.0;
    double blockNs = 0.0;
    double denseNs = 0.0;
    double decodeNs = 0.0;
    std::uint64_t gathered = 0;
    std::vector<RaySample> buf;
    std::vector<float> feats;
    std::vector<DecodedSample> decoded(kDecodeChunk);
    for (std::size_t fi = 0; fi < frames.size(); ++fi) {
        const NerfModel &model = *frames[fi].model;
        const Camera &cam = frames[fi].camera;
        const std::int64_t request = static_cast<std::int64_t>(fi);

        std::uint64_t kept = 0;
        {
            ScopedSpan span(rec, "nerf.sampler.replay", parent, request);
            samplerNs += medianNs([&] {
                kept = 0;
                for (int y = 0; y < cam.height; ++y)
                    for (int x = 0; x < cam.width; ++x)
                        kept += static_cast<std::uint64_t>(
                            model.sampler().sample(cam.generateRay(x, y),
                                                   buf));
            });
        }
        p.rays += static_cast<std::uint64_t>(cam.width) * cam.height;
        p.kept += kept;

        const std::vector<Vec3> pos = model.collectSamplePositions(cam);
        const int n = static_cast<int>(pos.size());
        const Encoding &enc = model.encoding();
        const int dim = enc.featureDim();
        feats.resize(static_cast<std::size_t>(n) * dim);
        gathered += static_cast<std::uint64_t>(n);
        {
            ScopedSpan span(rec, "nerf.encoding.replay_block", parent,
                            request);
            blockNs += medianNs([&] {
                for (int i = 0; i < n; i += blockSize) {
                    const int m = std::min(blockSize, n - i);
                    enc.gatherFeatureBatch(pos.data() + i, m,
                                           feats.data() +
                                               static_cast<std::size_t>(i) *
                                                   dim);
                }
            });
        }
        {
            ScopedSpan span(rec, "nerf.encoding.replay_dense", parent,
                            request);
            denseNs += medianNs([&] {
                for (int i = 0; i < n; i += kDenseBatch) {
                    const int m = std::min(kDenseBatch, n - i);
                    enc.gatherFeatureBatch(pos.data() + i, m,
                                           feats.data() +
                                               static_cast<std::size_t>(i) *
                                                   dim);
                }
            });
        }
        // The dense gather left chunk-major SoA blocks of kDenseBatch
        // samples; decode them kDecodeChunk samples per call, each
        // call reading its slice of one block's channel planes.
        const Vec3 viewDir =
            (cam.pose.rot * Vec3{0.0f, 0.0f, -1.0f}).normalized();
        {
            ScopedSpan span(rec, "nerf.decoder.replay_dense", parent,
                            request);
            decodeNs += medianNs([&] {
                for (int i = 0; i < n; i += kDenseBatch) {
                    const int m = std::min(kDenseBatch, n - i);
                    const float *block =
                        feats.data() + static_cast<std::size_t>(i) * dim;
                    for (int j = 0; j < m; j += kDecodeChunk) {
                        const int c = std::min(kDecodeChunk, m - j);
                        model.decoder().decodeBatchSoA(
                            block + j, static_cast<std::size_t>(m), c,
                            viewDir, decoded.data());
                    }
                }
            });
        }
    }
    if (p.rays)
        p.samplerNsPerRay = samplerNs / static_cast<double>(p.rays);
    if (gathered) {
        const double g = static_cast<double>(gathered);
        p.encodingNsPerSampleBlock = blockNs / g;
        p.encodingNsPerSampleDense = denseNs / g;
        p.decoderNsPerSampleDense = decodeNs / g;
    }
    return p;
}

} // namespace perfbench
