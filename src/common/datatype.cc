#include "common/datatype.h"

namespace dstc {

QuantSpec
QuantSpec::forValues(DataType dtype, const float *data, size_t n)
{
    if (!dataTypeIsInteger(dtype))
        return QuantSpec{dtype, 1.0f};
    float max_abs = 0.0f;
    for (size_t i = 0; i < n; ++i) {
        const float a = std::fabs(data[i]);
        if (a > max_abs)
            max_abs = a;
    }
    return forMaxAbs(dtype, max_abs);
}

} // namespace dstc
