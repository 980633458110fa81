#include "trace.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench::trace {

namespace {

std::vector<std::string>& names()
{
    static std::vector<std::string> table;
    return table;
}

std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Recorder* g_active = nullptr;

} // namespace

std::uint32_t name_id(std::string_view name)
{
    auto& table = names();
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (table[i] == name) return static_cast<std::uint32_t>(i);
    }
    table.emplace_back(name);
    return static_cast<std::uint32_t>(table.size() - 1);
}

Recorder::Recorder() { spans_.reserve(1u << 16); }

std::int32_t Recorder::open(std::uint32_t name)
{
    Span_record span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = now_ns();
    spans_.push_back(span);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
}

void Recorder::close(std::int32_t index)
{
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (stack_.empty() || stack_.back() != index) {
        throw std::logic_error("trace: spans closed out of order");
    }
    stack_.pop_back();
}

std::map<std::string, Totals> Recorder::totals() const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span_record& s : spans_) {
        if (s.parent >= 0) {
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.end_ns - s.start_ns;
        }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span_record& s = spans_[i];
        Totals& t = out[names()[s.name]];
        const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        t.total_s += dur;
        t.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
        ++t.count;
    }
    return out;
}

void Recorder::write(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    out << "name\tparent\tstart_ns\tend_ns\n";
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span_record& s : spans_) {
        out << names()[s.name] << '\t' << s.parent << '\t'
            << (s.start_ns - origin) << '\t' << (s.end_ns - origin) << '\n';
    }
    if (!out) throw std::runtime_error("trace: cannot write " + path);
}

Totals totals_of(const std::map<std::string, Totals>& totals,
                 std::string_view name)
{
    const auto it = totals.find(std::string(name));
    return it == totals.end() ? Totals{} : it->second;
}

void set_active(Recorder* recorder) { g_active = recorder; }

Span::Span(std::uint32_t name) : recorder_(g_active)
{
    if (recorder_ != nullptr) index_ = recorder_->open(name);
}

Span::~Span()
{
    if (recorder_ != nullptr) recorder_->close(index_);
}

} // namespace perfbench::trace
