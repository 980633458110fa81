// Outside-in span recorder of the traced run.
//
// The library has no tracing of its own, so the traced run wraps spans
// around its calls INTO each layer's public functions: a span is
// (name, start, end, parent), kept in memory while the workload runs and
// written out at exit.  Self time of a span is its duration minus the time
// covered by its child spans; the per-layer metrics are sums of self (or
// inclusive) time per span name.  Recording is single-threaded — the
// traced replays run every engine on one thread — and costs two clock
// reads plus one vector append per span.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::trace {

/// Process-wide id of a span name (stable for the process lifetime).
std::uint32_t name_id(std::string_view name);

struct Span_record {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

struct Totals {
    double total_s = 0.0;  ///< inclusive duration summed over spans
    double self_s = 0.0;   ///< minus the time covered by child spans
    std::uint64_t count = 0;
};

class Recorder {
public:
    Recorder();

    std::int32_t open(std::uint32_t name);
    void close(std::int32_t index);

    const std::vector<Span_record>& spans() const { return spans_; }

    /// Totals per span name.
    std::map<std::string, Totals> totals() const;

    /// Write the spans as TSV (name, parent, start_ns, end_ns).
    void write(const std::string& path) const;

private:
    std::vector<Span_record> spans_;
    std::vector<std::int32_t> stack_;
};

/// The totals of one span name in `totals` (zero when absent).
Totals totals_of(const std::map<std::string, Totals>& totals,
                 std::string_view name);

/// Route spans to `recorder`; null turns tracing off (spans are no-ops).
void set_active(Recorder* recorder);

/// RAII span on the active recorder.
class Span {
public:
    explicit Span(std::uint32_t name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Recorder* recorder_;
    std::int32_t index_ = -1;
};

} // namespace perfbench::trace

/// Open a span named `name` (a string literal) for the enclosing scope.
#define PB_SPAN(var, name)                                             \
    static const std::uint32_t var##_name =                            \
        ::perfbench::trace::name_id(name);                             \
    const ::perfbench::trace::Span var(var##_name)

#endif // PERFBENCH_TRACE_H
