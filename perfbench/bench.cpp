#include "bench.h"

#include <algorithm>
#include <cmath>

#include <sys/resource.h>

namespace adapipe {
namespace perfbench {

double
peakRssMib()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

double
median(std::vector<double> values)
{
    const std::size_t n = values.size();
    if (n == 0)
        return 0;
    const auto mid = values.begin() + static_cast<long>(n / 2);
    std::nth_element(values.begin(), mid, values.end());
    if (n % 2 == 1)
        return *mid;
    return (*std::max_element(values.begin(), mid) + *mid) / 2;
}

std::optional<double>
tailPercentile(std::vector<double> values, double q)
{
    const std::size_t n = values.size();
    if (n == 0 || q <= 0 || q >= 1)
        return std::nullopt;
    // Nearest rank k = ceil(q n); the samples beyond it are n - k.
    // The epsilon keeps q n that is an integer in exact arithmetic
    // (0.99 * 1000) from rounding up a rank.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    const std::size_t k = std::max<std::size_t>(rank, 1);
    if (n - k < 10)
        return std::nullopt;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<long>(k - 1),
                     values.end());
    return values[k - 1];
}

int
SpanLog::open(const char *name, std::int64_t id)
{
    Span span;
    span.name = name;
    span.startUs = obs::nowUs();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.id = id;
    span.thread = obs::threadId();
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
SpanLog::close(int index)
{
    spans_[static_cast<std::size_t>(index)].endUs = obs::nowUs();
    stack_.pop_back();
}

void
SpanLog::merge(const SpanLog &other)
{
    const int base = static_cast<int>(spans_.size());
    for (Span span : other.spans_) {
        if (span.parent >= 0)
            span.parent += base;
        spans_.push_back(std::move(span));
    }
}

double
registrySpanSeconds(const obs::Registry &registry,
                    const std::string &name)
{
    double us = 0;
    for (const obs::SpanRecord &span : registry.spans())
        if (span.name == name)
            us += span.durUs;
    return us * 1e-6;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>>
        names = {
            {"hw.profile_s", "s"},
            {"core.stage_cost_s", "s"},
            {"core.partition_dp_s", "s"},
            {"core.knapsack_runs", "count"},
            {"core.recompute_dp_cells", "count"},
            {"core.iso_hit_ratio", "ratio"},
            {"sim.simulate_s", "s"},
            {"sim.events", "count"},
            {"autograd.matmul_fwd_us", "us"},
            {"autograd.matmul_bwd_us", "us"},
            {"autograd.attention_us", "us"},
            {"autograd.norm_us", "us"},
            {"autograd.adam_us", "us"},
            {"autograd.checkpoint_replays", "count"},
            {"autograd.pool_reuse_ratio", "ratio"},
            {"autograd.pool_heap_mib", "MiB"},
            {"runtime.fwd_s", "s"},
            {"runtime.bwd_compute_s", "s"},
            {"runtime.replay_critical_s", "s"},
            {"runtime.replay_hidden_s", "s"},
            {"runtime.recv_wait_s", "s"},
            {"runtime.send_blocked_s", "s"},
            {"runtime.bubble_frac", "ratio"},
            {"runtime.peak_act_mib", "MiB"},
            {"service.cache_hit_ratio", "ratio"},
            {"service.memo_hit_ratio", "ratio"},
            {"service.repeat_share", "ratio"},
            {"service.cold_p50_ms", "ms"},
            {"service.warm_p50_ms", "ms"},
            {"service.replan_p50_ms", "ms"},
            {"service.handle_us", "us"},
            {"service.transport_us", "us"},
            {"robust.replans", "count"},
            {"robust.replan_shortcircuit", "count"},
            {"trace.overhead_frac", "ratio"},
        };
    return names;
}

void
zeroUnusedLayers(Report &report)
{
    for (const auto &[name, unit] : layerMetrics()) {
        if (!report.layers.count(name))
            report.layers[name] = Metric{0, unit, 0};
    }
}

} // namespace perfbench
} // namespace adapipe
