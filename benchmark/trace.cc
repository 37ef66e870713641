#include "trace.hh"

#include <algorithm>
#include <fstream>

#include "json.hh"

namespace scsim::bench {

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Tracer::tidLocked()
{
    auto [it, fresh] = tids_.try_emplace(std::this_thread::get_id(),
                                         static_cast<int>(tids_.size()));
    return it->second;
}

int
Tracer::begin(const std::string &name, std::uint64_t job, int parent)
{
    std::int64_t t = now();
    std::lock_guard lock(mutex_);
    spans_.push_back(Span{ name, job, parent, tidLocked(), t, -1 });
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int span)
{
    std::int64_t t = now();
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(span)].endNs = t;
}

int
Tracer::add(const std::string &name, std::uint64_t job, int parent,
            std::int64_t startNs, std::int64_t endNs)
{
    std::lock_guard lock(mutex_);
    spans_.push_back(Span{ name, job, parent, tidLocked(), startNs, endNs });
    return static_cast<int>(spans_.size() - 1);
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::lock_guard lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name && s.endNs >= 0)
            out.push_back(s.ms());
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard lock(mutex_);
    // Self time subtracts the part of a span its children cover; farm
    // jobs run side by side, so overlapping children count once.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent != kNoParent && s.endNs >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                  s.endNs);
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        std::sort(kids[i].begin(), kids[i].end());
        std::int64_t covered = spans_[i].startNs;
        for (auto [b, e] : kids[i]) {
            b = std::max(b, covered);
            e = std::min(e, spans_[i].endNs);
            if (e > b) {
                childNs[i] += e - b;
                covered = e;
            }
        }
    }

    std::ofstream out(path, std::ios::trunc);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0)
            continue;
        std::int64_t dur = s.endNs - s.startNs;
        out << (first ? "" : ",\n") << "{\"name\": " << jsonString(s.name)
            << ", \"cat\": " << jsonString(s.name.substr(0, s.name.find('.')))
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
            << ", \"ts\": " << jsonNumber(s.startNs / 1e3)
            << ", \"dur\": " << jsonNumber(dur / 1e3)
            << ", \"args\": {\"span\": " << i << ", \"job\": " << s.job
            << ", \"parent\": " << s.parent
            << ", \"self_us\": " << jsonNumber((dur - childNs[i]) / 1e3)
            << "}}";
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out.flush());
}

} // namespace scsim::bench
