/**
 * @file
 * In-memory span recording for the traced run. A span is a named
 * interval with a parent span and a request id (a frame, clip or
 * session); the benchmark opens spans around the calls it makes into
 * each layer's public functions, keeps them in per-thread buffers and
 * writes them out as Chrome trace-event JSON when the run ends. A
 * layer's self time is its span minus the part of it its child spans
 * cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util.hh"

namespace perfbench {

struct Span
{
    const char *name = "";    //!< static string: the layer call
    std::uint64_t id = 0;     //!< unique, > 0
    std::uint64_t parent = 0; //!< 0 = root
    std::int64_t request = -1; //!< frame / clip / session id
    int lane = 0;             //!< recording thread (or rebuilt lane)
    std::int64_t startNs = 0; //!< since the recorder's epoch
    std::int64_t endNs = 0;

    std::int64_t durationNs() const { return endNs - startNs; }
};

class SpanRecorder
{
  public:
    SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Nanoseconds of @p t since the recorder's epoch. */
    std::int64_t toNs(Clock::time_point t) const;
    std::int64_t nowNs() const { return toNs(Clock::now()); }

    std::uint64_t newId() { return _nextId.fetch_add(1) + 1; }

    /** Record a finished span on the calling thread's buffer. */
    void add(const Span &span);

    /**
     * Record a span on an explicit lane (spans rebuilt after the fact,
     * such as serve frames, which ran on no one thread we can see).
     */
    void addOnLane(Span span, int lane);

    /** Every span recorded so far (copy; call once the run is quiet). */
    std::vector<Span> collect() const;

    /**
     * Write Chrome trace-event JSON ("X" complete events, one track per
     * lane, args carrying id / parent / request). Returns false on an
     * I/O error.
     */
    static bool writeChromeTrace(const std::vector<Span> &spans,
                                 const std::string &path);

  private:
    struct Buffer
    {
        int lane = 0;
        std::vector<Span> spans;
    };
    Buffer &localBuffer();

    Clock::time_point _epoch;
    std::atomic<std::uint64_t> _nextId{0};
    std::uint64_t _generation;
    mutable std::mutex _mu; //!< guards _buffers
    std::vector<std::unique_ptr<Buffer>> _buffers;
};

/** RAII span on the calling thread. A null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, std::uint64_t parent,
               std::int64_t request);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (0 when not recording), for children. */
    std::uint64_t id() const { return _span.id; }

  private:
    SpanRecorder *_rec;
    Span _span;
};

/**
 * Self time of @p span: its duration minus the union of the parts of
 * @p children's intervals that fall inside it.
 */
std::int64_t selfTimeNs(const Span &span, std::vector<Span> children);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
