/**
 * @file
 * vbench span recorder: host-time spans taken around the public calls
 * into each engine layer, kept in memory per cell and written once at
 * the end as Chrome trace JSON. A span's self time is its duration
 * minus the time its child spans cover.
 */

#ifndef VBENCH_SPANS_HH
#define VBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "support/common.hh"

namespace vbench
{

using vspec::u32;
using vspec::u64;

/** Host nanoseconds on the steady clock, comparable across processes. */
inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** CPU time of the calling thread, in nanoseconds. Cell timings use
 *  it: for single-threaded, IO-free engine calls it equals wall time
 *  unless the thread is descheduled, so neighbours on a shared host do
 *  not show up as engine slowdowns. */
inline u64
threadCpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<u64>(ts.tv_sec) * 1000000000ull
           + static_cast<u64>(ts.tv_nsec);
}

/** Small per-thread index for the trace's tid field. */
inline u32
threadIndex()
{
    static std::atomic<u32> next{0};
    thread_local const u32 index = next.fetch_add(1);
    return index;
}

struct Span
{
    const char *name;  //!< layer-qualified, e.g. "frontend.parse"
    u32 cell;          //!< shared by every span of one cell
    int parent;        //!< index in the same log, -1 for a root
    u32 tid;
    u64 startNs;
    u64 endNs;

    u64 durNs() const { return endNs - startNs; }
};

/** The spans of one cell, in open order (parents before children). */
class SpanLog
{
  public:
    explicit SpanLog(u32 cell) : cell_(cell) {}

    size_t
    open(const char *name)
    {
        spans.push_back({name, cell_, current_, threadIndex(), nowNs(), 0});
        current_ = static_cast<int>(spans.size() - 1);
        return spans.size() - 1;
    }

    void
    close(size_t index)
    {
        spans[index].endNs = nowNs();
        current_ = spans[index].parent;
    }

    std::vector<Span> spans;

  private:
    u32 cell_;
    int current_ = -1;
};

/** RAII span; a null log records nothing (the untraced run). */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const char *name)
        : log_(log), index_(log != nullptr ? log->open(name) : 0)
    {
    }
    ~SpanScope()
    {
        if (log_ != nullptr)
            log_->close(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    size_t index_;
};

/** Self time per span name, in nanoseconds, summed over @p logs. */
inline std::map<std::string, double>
selfTimes(const std::vector<SpanLog> &logs)
{
    std::map<std::string, double> self;
    for (const SpanLog &log : logs) {
        std::vector<double> child(log.spans.size(), 0.0);
        for (const Span &s : log.spans)
            if (s.parent >= 0)
                child[static_cast<size_t>(s.parent)] +=
                    static_cast<double>(s.durNs());
        for (size_t i = 0; i < log.spans.size(); i++)
            self[log.spans[i].name] +=
                static_cast<double>(log.spans[i].durNs()) - child[i];
    }
    return self;
}

/** Write every span as a Chrome trace "complete" event. */
inline bool
writeChromeTrace(const std::string &path,
                 const std::vector<const std::vector<SpanLog> *> &phases)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (const auto *logs : phases) {
        for (const SpanLog &log : *logs) {
            for (const Span &s : log.spans) {
                const char *parent =
                    s.parent >= 0
                        ? log.spans[static_cast<size_t>(s.parent)].name
                        : "";
                std::fprintf(f,
                             "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                             "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                             "\"args\":{\"cell\":%u,\"parent\":\"%s\"}}",
                             first ? "" : ",", s.name, s.tid,
                             static_cast<double>(s.startNs) / 1e3,
                             static_cast<double>(s.durNs()) / 1e3, s.cell,
                             parent);
                first = false;
            }
        }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace vbench

#endif // VBENCH_SPANS_HH
