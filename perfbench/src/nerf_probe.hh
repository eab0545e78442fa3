/**
 * @file
 * Per-layer replays of the nerf layer on a workload's own frames: the
 * benchmark re-issues the public calls a frame's render makes
 * (RaySampler::sample over its rays, Encoding::gatherFeatureBatch over
 * its kept sample positions, Decoder::decodeBatchSoA over the gathered
 * features) on one thread and times each layer alone.
 */

#ifndef PERFBENCH_NERF_PROBE_HH
#define PERFBENCH_NERF_PROBE_HH

#include <cstdint>
#include <vector>

#include "common/geometry.hh"
#include "nerf/renderer.hh"

namespace perfbench {

class SpanRecorder;

struct ProbeFrame
{
    const cicero::NerfModel *model = nullptr;
    cicero::Camera camera;
};

struct NerfProbe
{
    std::uint64_t rays = 0;
    std::uint64_t kept = 0;          //!< samples the sampler kept
    double samplerNsPerRay = 0.0;
    double encodingNsPerSampleBlock = 0.0; //!< at the given block size
    double encodingNsPerSampleDense = 0.0; //!< kDenseBatch per call
    double decoderNsPerSampleDense = 0.0;  //!< kDecodeChunk per call
};

/** Samples per call of the dense encoding replay. */
constexpr int kDenseBatch = 4096;

/**
 * Replay the nerf layers over @p frames. The sampler runs over every
 * frame's rays; the encoding and decoder replays run over every
 * frame's kept sample positions, the block replay at @p blockSize
 * samples per call. Each replay is timed three times and the median
 * kept. Spans go under @p parent when @p rec is set.
 */
NerfProbe probeNerf(const std::vector<ProbeFrame> &frames, int blockSize,
                    SpanRecorder *rec, std::uint64_t parent);

} // namespace perfbench

#endif // PERFBENCH_NERF_PROBE_HH
