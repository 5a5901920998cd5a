/**
 * @file
 * The seeded request stream serve_mix sends to the plan service.
 *
 * The distinct requests are plan, explain and replan (straggler)
 * requests over gpt3-13b, gpt3-6.7b and llama2-13b at two tensor
 * sizes, two global batch sizes and two pipeline depths. They are
 * assumed shapes, not a measured trace: no public trace of planner
 * traffic exists to draw them from. Each request of the stream is
 * drawn uniformly from the distinct set, so requests repeat only
 * because the stream is longer than the set; the repeat share is a
 * measured property of the stream, not a parameter. The stream is a
 * pure function of the seed.
 */

#ifndef ADAPIPE_PERFBENCH_REQUEST_STREAM_H
#define ADAPIPE_PERFBENCH_REQUEST_STREAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace adapipe {
namespace perfbench {

struct StreamRequest
{
    std::string line;
    /** Index of the distinct request; equal keys, equal lines. */
    int key = 0;
    /** Whether an earlier request of the stream had the same key. */
    bool repeat = false;
    bool replan = false;
};

class RequestStream
{
  public:
    explicit RequestStream(std::uint64_t seed);

    StreamRequest next();

    /** Number of distinct requests the stream draws from. */
    std::size_t distinct() const { return lines_.size(); }

  private:
    Rng rng_;
    std::vector<std::string> lines_;
    std::vector<bool> replan_;
    /** Whether each distinct request has been issued. */
    std::vector<bool> seen_;
};

} // namespace perfbench
} // namespace adapipe

#endif // ADAPIPE_PERFBENCH_REQUEST_STREAM_H
