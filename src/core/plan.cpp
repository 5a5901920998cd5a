#include "core/plan.h"

#include "util/logging.h"

namespace adapipe {

namespace {

/** The one method-name table: display and wire name per method. */
struct MethodNames
{
    PlanMethod method;
    const char *display;
    const char *wire;
};

constexpr MethodNames kMethodNames[] = {
    {PlanMethod::AdaPipe, "AdaPipe", "adapipe"},
    {PlanMethod::EvenPartition, "Even Partitioning", "even"},
    {PlanMethod::DappleFull, "DAPPLE-Full", "dapple-full"},
    {PlanMethod::DappleNon, "DAPPLE-Non", "dapple-non"},
    {PlanMethod::DappleSelective, "DAPPLE-Selective",
     "dapple-selective"},
};

const MethodNames &
namesOf(PlanMethod method)
{
    for (const MethodNames &names : kMethodNames) {
        if (names.method == method)
            return names;
    }
    ADAPIPE_FATAL("unhandled plan method");
}

} // namespace

const char *
planMethodName(PlanMethod method)
{
    return namesOf(method).display;
}

const char *
planMethodWireName(PlanMethod method)
{
    return namesOf(method).wire;
}

std::optional<PlanMethod>
planMethodByName(const std::string &name)
{
    for (const MethodNames &names : kMethodNames) {
        if (name == names.wire)
            return names.method;
    }
    return std::nullopt;
}

const std::string &
planMethodWireNames()
{
    static const std::string joined = [] {
        std::string out;
        for (const MethodNames &names : kMethodNames) {
            if (!out.empty())
                out += '|';
            out += names.wire;
        }
        return out;
    }();
    return joined;
}

const PipelinePlan &
PlanResult::value() const
{
    ADAPIPE_ASSERT(ok, "accessing plan of infeasible result: ",
                   oomReason);
    return plan;
}

} // namespace adapipe
