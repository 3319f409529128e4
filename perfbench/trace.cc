#include "trace.hh"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

int32_t
Tracer::begin(std::string name, int32_t parent, uint32_t op)
{
    int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
    spans_.push_back({std::move(name), now, now, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
}

void
Tracer::end(int32_t index)
{
    spans_[index].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count();
}

int32_t
Tracer::add(Span span)
{
    spans_.push_back(std::move(span));
    return static_cast<int32_t>(spans_.size() - 1);
}

std::string
Tracer::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        // Span names are fixed "layer.step" identifiers: no escaping.
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"op\":%" PRIu32 ",\"span\":%zu,"
                      "\"parent\":%" PRId32 "}}",
                      i ? "," : "", span.name.c_str(),
                      static_cast<int>(span.name.find('.')),
                      span.name.c_str(), span.startNs / 1000.0,
                      span.durationNs() / 1000.0, span.op, i, span.parent);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].durationNs();
    for (const Span &span : spans)
        if (span.parent >= 0)
            self[span.parent] -= span.durationNs();
    return self;
}

std::map<std::string, double>
totalMillisByName(const std::vector<Span> &spans)
{
    std::map<std::string, double> totals;
    for (const Span &span : spans)
        totals[span.name] += span.durationNs() / 1e6;
    return totals;
}

std::vector<double>
unattributedShares(const std::vector<Span> &spans)
{
    std::vector<bool> hasChild(spans.size(), false);
    for (const Span &span : spans)
        if (span.parent >= 0)
            hasChild[span.parent] = true;
    std::vector<int64_t> self = selfTimesNs(spans);
    std::vector<double> shares;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0 || !hasChild[i])
            continue;
        int64_t duration = spans[i].durationNs();
        shares.push_back(duration > 0 ? static_cast<double>(self[i]) /
                                            static_cast<double>(duration)
                                      : 0.0);
    }
    return shares;
}

} // namespace perfbench
