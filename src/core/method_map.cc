#include "core/method_map.h"

#include "common/logging.h"

namespace dstc {

namespace {

/** One row of the strategy table. */
struct ConvMethodEntry
{
    ConvMethod conv;
    Method method;
    Lowering lowering;
};

constexpr ConvMethodEntry kTable[] = {
    {ConvMethod::DenseExplicit, Method::Dense, Lowering::Explicit},
    {ConvMethod::DenseImplicit, Method::Dense, Lowering::Implicit},
    {ConvMethod::SingleSparseExplicit, Method::ZhuSparse,
     Lowering::Explicit},
    {ConvMethod::SingleSparseImplicit, Method::ZhuSparse,
     Lowering::Implicit},
    {ConvMethod::DualSparseImplicit, Method::DualSparse,
     Lowering::Implicit},
};

} // namespace

ConvMethod
toConvMethod(Method method, Lowering lowering)
{
    for (const ConvMethodEntry &entry : kTable)
        if (entry.method == method && entry.lowering == lowering)
            return entry.conv;
    panic("method has no convolution strategy: ",
          nameOf(kMethods, method));
}

void
splitConvMethod(ConvMethod conv, Method *method, Lowering *lowering)
{
    for (const ConvMethodEntry &entry : kTable) {
        if (entry.conv == conv) {
            *method = entry.method;
            *lowering = entry.lowering;
            return;
        }
    }
    panic("unknown conv method");
}

} // namespace dstc
