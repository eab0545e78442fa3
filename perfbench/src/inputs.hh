/**
 * @file
 * Seeded workload inputs: camera orbits around a scene. The benchmark
 * generates every pose itself, so the program under test receives only
 * the poses, and the same seed always yields the same poses.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/geometry.hh"
#include "scene/scene.hh"
#include "util.hh"

namespace perfbench {

struct OrbitSpec
{
    double degPerFrame = 0.0;  //!< azimuth step between frames
    double wobbleFrames = 120; //!< period of the height oscillation
    double eyeJitter = 0.0;    //!< per-frame eye noise (world units)
    double targetJitter = 0.0; //!< per-frame look-at noise
};

/**
 * @p frames poses orbiting @p scene's origin at its camera distance,
 * starting at a seeded azimuth and wobble phase, with seeded per-frame
 * hand-held jitter of the eye and the look-at point.
 */
inline std::vector<cicero::Pose>
orbitPoses(const cicero::Scene &scene, std::uint64_t seed, int frames,
           const OrbitSpec &spec)
{
    constexpr double kTwoPi = 6.283185307179586;
    Rng rng(streamSeed(seed, 0x0B17));
    const double startDeg = 360.0 * rng.uniform();
    const double phase = kTwoPi * rng.uniform();
    const double r = scene.cameraDistance;
    std::vector<cicero::Pose> out;
    out.reserve(frames);
    for (int i = 0; i < frames; ++i) {
        const double az = (startDeg + spec.degPerFrame * i) * kTwoPi / 360.0;
        const double h =
            0.6 + 0.15 * std::sin(phase + kTwoPi * i / spec.wobbleFrames);
        cicero::Vec3 eye{static_cast<float>(r * std::cos(az)),
                         static_cast<float>(h),
                         static_cast<float>(r * std::sin(az))};
        cicero::Vec3 at{};
        if (spec.eyeJitter > 0.0)
            eye += cicero::Vec3{static_cast<float>(rng.normal()),
                                static_cast<float>(rng.normal()),
                                static_cast<float>(rng.normal())} *
                   static_cast<float>(spec.eyeJitter);
        if (spec.targetJitter > 0.0)
            at += cicero::Vec3{static_cast<float>(rng.normal()),
                               static_cast<float>(rng.normal()),
                               static_cast<float>(rng.normal())} *
                  static_cast<float>(spec.targetJitter);
        out.push_back(cicero::Pose::lookAt(eye, at, {0.0f, 1.0f, 0.0f}));
    }
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
