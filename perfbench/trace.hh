/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark wraps each call into a layer's public functions in a
 * span (name "layer.step", start, end, parent span, op id). Spans stay
 * in memory while the run measures and are written out at the end as
 * Chrome trace-event JSON, which Perfetto and chrome://tracing open
 * directly. Self times -- a span's duration minus what its direct
 * children cover -- give each layer's share of an op, and an op's
 * unattributed time (root self time) is the "layers add up" check.
 *
 * A null Tracer turns every ScopedSpan into a no-op with no clock
 * read, which is how the untraced end-to-end runs measure.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    int64_t startNs = 0; //!< since the tracer's epoch
    int64_t endNs = 0;
    int32_t parent = -1; //!< index of the parent span; -1 for a root
    uint32_t op = 0;     //!< op the span belongs to

    int64_t durationNs() const { return endNs - startNs; }
};

class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    /** Open a span now; returns its index for end() and as a parent. */
    int32_t begin(std::string name, int32_t parent, uint32_t op);

    /** Close span @p index now. */
    void end(int32_t index);

    /** Append an already-measured span (tests, imported timings). */
    int32_t add(Span span);

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    std::string chromeJson() const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when the tracer is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, int32_t parent,
               uint32_t op)
        : tracer_(tracer),
          index_(tracer ? tracer->begin(name, parent, op) : -1)
    {
    }

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(index_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int32_t index() const { return index_; }

  private:
    Tracer *tracer_;
    int32_t index_;
};

/** Per-span self time in ns: duration minus the durations of its
 *  direct children (children of one op never overlap: ops run on one
 *  thread). */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Total duration (ms) of every span, summed by name. */
std::map<std::string, double>
totalMillisByName(const std::vector<Span> &spans);

/**
 * For every root span that has children, the share of its duration no
 * child covers (0 = the layers add up exactly). Harness glue between
 * calls lands here, so the benchmark bounds it (kLayerSumTolerance in
 * main.cc).
 */
std::vector<double> unattributedShares(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
