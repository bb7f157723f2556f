#include "spans.hh"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace polcabench {

double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
        Clock::now().time_since_epoch()).count();
}

SpanRecorder::Scope::Scope(SpanRecorder *recorder, std::string name)
    : recorder_(recorder), start_(nowSeconds())
{
    if (!recorder_)
        return;
    Span span;
    span.name = std::move(name);
    span.start = start_ - recorder_->epoch_;
    span.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
    index_ = static_cast<int>(recorder_->spans_.size());
    recorder_->spans_.push_back(std::move(span));
    recorder_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope()
{
    if (!recorder_)
        return;
    recorder_->spans_[static_cast<std::size_t>(index_)].end =
        nowSeconds() - recorder_->epoch_;
    recorder_->open_.pop_back();
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "\"start_s\": %.9f, \"end_s\": %.9f, "
                      "\"parent\": %d}",
                      s.start, s.end, s.parent);
        os << "  {\"id\": " << i << ", \"name\": \"" << s.name
           << "\", " << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
}

} // namespace polcabench
