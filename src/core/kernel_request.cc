#include "core/kernel_request.h"

#include "sparse/word_encode.h"

namespace dstc {

double
Operand::density() const
{
    if (const Synthetic *point = synthetic())
        return 1.0 - point->sparsity;
    if (const Matrix<float> *m = matrix())
        return 1.0 - wordSparsity(*m);
    if (const Tensor4d *t = tensor())
        return 1.0 - t->sparsity();
    // Exact counts, over a profile's true extent.
    const SparsityProfile *p = profile();
    const TwoLevelBitmapMatrix *e = encoded();
    const double elems = p ? static_cast<double>(p->extent()) *
                                 static_cast<double>(p->k())
                           : static_cast<double>(e->rows()) *
                                 static_cast<double>(e->cols());
    const int64_t nnz = p ? p->totalNnz() : e->nnz();
    return elems > 0 ? static_cast<double>(nnz) / elems : 0.0;
}

bool
operandsValid(const KernelRequest &request)
{
    const Operand &a = request.a, &b = request.b;
    switch (request.kind) {
      case KernelRequest::Kind::Gemm:
        // Both sides in one form: synthetic, concrete, profiled or
        // pre-encoded (a conv input tensor has no GEMM meaning), and
        // concrete sides share their K extent.
        return a.form.index() == b.form.index() && !a.tensor() &&
               (!a.matrix() || a.matrix()->cols() == b.matrix()->rows());
      case KernelRequest::Kind::Spmm:
        // B streams through dense: concrete beside a concrete A (of
        // the same K extent), else synthetic. A profile comes at
        // strip granularity.
        if (a.matrix())
            return b.matrix() && a.matrix()->cols() == b.matrix()->rows();
        return b.synthetic() &&
               (a.synthetic() || (a.profile() && a.profile()->tile() == 8));
      case KernelRequest::Kind::Conv: {
        if (a.synthetic() && b.synthetic())
            return true;
        // A functional conv's tensor and weights (out_c x in_c*k*k)
        // must both match its shape.
        const Tensor4d *x = a.tensor();
        const Matrix<float> *w = b.matrix();
        const ConvShape &s = request.shape;
        return x && w && x->n() == s.batch && x->c() == s.in_c &&
               x->h() == s.in_h && x->w() == s.in_w &&
               w->rows() == s.out_c && w->cols() == s.loweredCols();
      }
    }
    return false;
}

} // namespace dstc
