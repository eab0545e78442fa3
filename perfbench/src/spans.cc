#include "spans.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> gGeneration{0};

} // namespace

SpanRecorder::SpanRecorder()
    : _epoch(Clock::now()), _generation(gGeneration.fetch_add(1) + 1)
{
}

std::int64_t
SpanRecorder::toNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - _epoch)
        .count();
}

SpanRecorder::Buffer &
SpanRecorder::localBuffer()
{
    // One buffer per (thread, recorder); the generation tag keeps a
    // thread from writing into a buffer of an earlier recorder.
    thread_local std::uint64_t tlGeneration = 0;
    thread_local Buffer *tlBuffer = nullptr;
    if (tlGeneration != _generation || !tlBuffer) {
        std::lock_guard<std::mutex> lock(_mu);
        _buffers.push_back(std::make_unique<Buffer>());
        _buffers.back()->lane = static_cast<int>(_buffers.size());
        tlBuffer = _buffers.back().get();
        tlGeneration = _generation;
    }
    return *tlBuffer;
}

void
SpanRecorder::add(const Span &span)
{
    Buffer &b = localBuffer();
    b.spans.push_back(span);
    b.spans.back().lane = b.lane;
}

void
SpanRecorder::addOnLane(Span span, int lane)
{
    span.lane = lane;
    localBuffer().spans.push_back(span);
}

std::vector<Span>
SpanRecorder::collect() const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::vector<Span> all;
    for (const auto &b : _buffers)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    std::sort(all.begin(), all.end(), [](const Span &a, const Span &b) {
        return a.startNs != b.startNs ? a.startNs < b.startNs : a.id < b.id;
    });
    return all;
}

bool
SpanRecorder::writeChromeTrace(const std::vector<Span> &spans,
                               const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    std::vector<int> lanes;
    for (const Span &s : spans)
        lanes.push_back(s.lane);
    std::sort(lanes.begin(), lanes.end());
    lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
    for (int lane : lanes) {
        std::fprintf(f,
                     "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%d,\"args\":{\"name\":\"lane %d\"}}",
                     first ? "" : ",\n", lane, lane);
        first = false;
    }
    for (const Span &s : spans) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,"
                     "\"request\":%lld}}",
                     first ? "" : ",\n", s.name, s.lane, s.startNs / 1e3,
                     s.durationNs() / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<long long>(s.request));
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = !std::ferror(f);
    return std::fclose(f) == 0 && ok;
}

ScopedSpan::ScopedSpan(SpanRecorder *rec, const char *name,
                       std::uint64_t parent, std::int64_t request)
    : _rec(rec)
{
    if (!_rec)
        return;
    _span.name = name;
    _span.id = _rec->newId();
    _span.parent = parent;
    _span.request = request;
    _span.startNs = _rec->nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!_rec)
        return;
    _span.endNs = _rec->nowNs();
    _rec->add(_span);
}

std::int64_t
selfTimeNs(const Span &span, std::vector<Span> children)
{
    std::sort(children.begin(), children.end(),
              [](const Span &a, const Span &b) {
                  return a.startNs < b.startNs;
              });
    std::int64_t covered = 0;
    std::int64_t reach = span.startNs; // end of the union so far
    for (const Span &c : children) {
        const std::int64_t lo = std::max(c.startNs, reach);
        const std::int64_t hi = std::min(c.endNs, span.endNs);
        if (hi > lo) {
            covered += hi - lo;
            reach = hi;
        }
    }
    return span.durationNs() - covered;
}

} // namespace perfbench
