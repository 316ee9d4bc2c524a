/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * A span is a named host wall-clock interval with an optional parent.
 * Spans are appended to a vector while the run executes and written
 * out once at the end, as Chrome trace-event JSON (viewable offline in
 * Perfetto or chrome://tracing). Only the traced run records spans;
 * the untraced run never touches a Tracer.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstddef>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** One recorded span; times are microseconds since the tracer began. */
struct Span
{
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1; //!< index of the causing span; -1 for roots

    double durUs() const { return end_us - start_us; }
};

class Tracer
{
  public:
    Tracer() : origin_(std::chrono::steady_clock::now()) {}

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    /** Open a span now; close it with end(). @return its id */
    int
    begin(std::string name, int parent = -1)
    {
        double t = nowUs();
        return add(std::move(name), t, t, parent);
    }

    void end(int id) { spans_[id].end_us = nowUs(); }

    /** Record an already-measured span. @return its id */
    int
    add(std::string name, double start_us, double end_us, int parent = -1)
    {
        spans_.push_back({std::move(name), start_us, end_us, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span: its duration minus its children's. The
     * benchmark records a span's children on the span's own thread, one
     * after another, so their durations never overlap.
     */
    std::vector<double>
    selfTimesUs() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[i] += spans_[i].durUs();
            if (spans_[i].parent >= 0)
                self[spans_[i].parent] -= spans_[i].durUs();
        }
        return self;
    }

    /**
     * Write every span as a Chrome trace-event ("X" phase) document.
     * @param other_data a JSON object stored under "otherData"
     */
    bool
    writeChromeTrace(const std::string &path,
                     const std::string &other_data) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        std::vector<double> self = selfTimesUs();
        os.precision(15);
        os << "{\"displayTimeUnit\": \"ms\",\n\"otherData\": "
           << other_data << ",\n\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "  {\"name\": \"" << s.name
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << rootOf(i)
               << ", \"ts\": " << s.start_us << ", \"dur\": " << s.durUs()
               << ", \"args\": {\"id\": " << i
               << ", \"parent\": " << s.parent
               << ", \"self_us\": " << self[i] << "}}"
               << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << "]}\n";
        return static_cast<bool>(os);
    }

  private:
    /** Spans of one top-level stage share a track in the viewer. */
    int
    rootOf(std::size_t i) const
    {
        int id = static_cast<int>(i);
        while (spans_[id].parent >= 0)
            id = spans_[id].parent;
        return id;
    }

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string name, int parent = -1)
        : tracer_(tracer), id_(tracer.begin(std::move(name), parent))
    {}
    ~ScopedSpan() { tracer_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
