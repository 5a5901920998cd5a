/**
 * @file
 * Self-tests of the benchmark's own code: the tail-percentile rule,
 * the median and the seeded request stream. Run with
 *   python3 perfbench/run.py --self-test
 * Exit status 0 when every check passes.
 */

#include <cstdio>
#include <set>
#include <vector>

#include "bench.h"
#include "request_stream.h"

using namespace adapipe::perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

std::vector<double>
ramp(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

std::vector<std::string>
streamLines(std::uint64_t seed, int n)
{
    RequestStream stream(seed);
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i)
        out.push_back(stream.next().line);
    return out;
}

} // namespace

int
main()
{
    // A percentile is reported only with >= 10 samples beyond it.
    expect(!tailPercentile(ramp(999), 0.99),
           "p99 withheld at 999 samples (9 beyond)");
    const auto p99 = tailPercentile(ramp(1000), 0.99);
    expect(p99 && *p99 == 990, "p99 of 1..1000 is 990 (10 beyond)");
    expect(!tailPercentile(ramp(199), 0.95),
           "p95 withheld at 199 samples");
    const auto p95 = tailPercentile(ramp(200), 0.95);
    expect(p95 && *p95 == 190, "p95 of 1..200 is 190 (10 beyond)");
    expect(!tailPercentile(ramp(10), 0.5),
           "p50 withheld at 10 samples (5 beyond)");
    expect(!tailPercentile({}, 0.5), "nothing reported without samples");

    const auto p75 = tailPercentile(ramp(40), 0.75);
    expect(p75 && *p75 == 30, "p75 of 1..40 is 30 (10 beyond)");
    expect(median(ramp(4)) == 2.5 && median(ramp(5)) == 3 &&
               median({10, 1, 2, 3, 4}) == 3,
           "median is the middle sample, or the mean of the two middle");

    // The request stream is a pure function of its seed.
    const auto a = streamLines(7, 2000);
    expect(a == streamLines(7, 2000), "equal seeds, identical streams");
    expect(a != streamLines(8, 2000), "different seeds, different streams");

    RequestStream stream(11);
    int repeats = 0;
    std::set<int> keys;
    bool keys_consistent = true;
    std::vector<std::string> line_of(stream.distinct());
    // One serve_mix round.
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const StreamRequest r = stream.next();
        repeats += r.repeat;
        const bool seen = keys.count(r.key) > 0;
        keys_consistent = keys_consistent && seen == r.repeat;
        std::string &line = line_of[static_cast<std::size_t>(r.key)];
        if (line.empty())
            line = r.line;
        keys_consistent = keys_consistent && line == r.line;
        keys.insert(r.key);
    }
    expect(keys_consistent, "repeat flag and key match the lines sent");
    expect(n - repeats == static_cast<int>(keys.size()) &&
               keys.size() >= stream.distinct() * 95 / 100,
           "a round issues nearly every distinct request");

    std::printf("%d failure(s)\n", failures);
    return failures ? 1 : 0;
}
