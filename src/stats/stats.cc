#include "stats/stats.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.hh"

namespace scsim {

void
Distribution::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
Distribution::merge(const Distribution &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    double delta = other.mean_ - mean_;
    std::uint64_t n = count_ + other.count_;
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
    mean_ = (na * mean_ + nb * other.mean_) / static_cast<double>(n);
    count_ = n;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Distribution::reset()
{
    *this = Distribution();
}

double
Distribution::mean() const
{
    return count_ ? mean_ : 0.0;
}

double
Distribution::variance() const
{
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

double
Distribution::cov() const
{
    double mu = mean();
    return mu != 0.0 ? stddev() / mu : 0.0;
}

void
TimeSeries::rollTo(Cycle now)
{
    while (now >= curWindowStart_ + window_) {
        samples_.push_back(curSum_ / static_cast<double>(window_));
        curSum_ = 0.0;
        curWindowStart_ += window_;
    }
}

void
TimeSeries::add(Cycle now, double amount)
{
    rollTo(now);
    curSum_ += amount;
}

void
TimeSeries::finalize(Cycle now)
{
    rollTo(now);
    Cycle tail = now - curWindowStart_;
    if (tail > 0) {
        samples_.push_back(curSum_ / static_cast<double>(tail));
        curSum_ = 0.0;
        curWindowStart_ = now;
    }
}

void
TimeSeries::merge(const TimeSeries &other)
{
    if (other.samples_.empty())
        return;
    if (samples_.empty())
        window_ = other.window_;   // adopt the recording window
    scsim_assert(window_ == other.window_,
                 "cannot merge TimeSeries with windows %llu and %llu",
                 static_cast<unsigned long long>(window_),
                 static_cast<unsigned long long>(other.window_));
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    curWindowStart_ = window_ * samples_.size();
}

void
TimeSeries::restoreSamples(std::vector<double> samples)
{
    samples_ = std::move(samples);
    curSum_ = 0.0;
    curWindowStart_ = window_ * samples_.size();
}

void
TimeSeries::restoreState(std::vector<double> samples,
                         Cycle curWindowStart, double curSum)
{
    samples_ = std::move(samples);
    curWindowStart_ = curWindowStart;
    curSum_ = curSum;
}

double
TimeSeries::average() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
geomean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs) {
        scsim_assert(x > 0.0, "geomean requires positive values");
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

double
coefficientOfVariation(std::span<const double> xs)
{
    Distribution d;
    for (double x : xs)
        d.add(x);
    return d.cov();
}

namespace {

/** Exactly as many names as SimStats has members: the counters of
 *  kStatsCounters plus the issue matrix, the RF trace and the kernel
 *  spans.  A member added to the struct fails to compile here, so it
 *  gets a table row, or hand-written code in stats_io.cc and merge(). */
[[maybe_unused]] void
bindEveryMember(const SimStats &s)
{
    [[maybe_unused]] const auto &[f01, f02, f03, f04, f05, f06, f07, f08,
                                  f09, f10, f11, f12, f13, f14, f15, f16,
                                  f17, f18, f19, f20, f21, f22, f23, f24,
                                  f25, f26] = s;
}
static_assert(std::size(kStatsCounters) + 3 == 26);

} // namespace

double
SimStats::ipc() const
{
    return cycles ? static_cast<double>(instructions)
                        / static_cast<double>(cycles)
                  : 0.0;
}

void
SimStats::merge(const SimStats &other)
{
    for (const auto &[name, member] : kStatsCounters)
        this->*member += other.*member;

    if (issuePerScheduler.size() < other.issuePerScheduler.size())
        issuePerScheduler.resize(other.issuePerScheduler.size());
    for (std::size_t sm = 0; sm < other.issuePerScheduler.size(); ++sm) {
        const auto &theirs = other.issuePerScheduler[sm];
        auto &ours = issuePerScheduler[sm];
        if (ours.size() < theirs.size())
            ours.resize(theirs.size(), 0);
        for (std::size_t s = 0; s < theirs.size(); ++s)
            ours[s] += theirs[s];
    }

    rfReadTrace.merge(other.rfReadTrace);

    kernelSpans.insert(kernelSpans.end(), other.kernelSpans.begin(),
                       other.kernelSpans.end());
}

double
SimStats::issueCov() const
{
    Distribution perSm;
    for (const auto &sched : issuePerScheduler) {
        std::vector<double> xs(sched.begin(), sched.end());
        double total = 0.0;
        for (double x : xs)
            total += x;
        if (total > 0.0)
            perSm.add(coefficientOfVariation(xs));
    }
    return perSm.mean();
}

} // namespace scsim
