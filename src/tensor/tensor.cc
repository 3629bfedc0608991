#include "tensor/tensor.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "tensor/gemm_kernels.hh"

namespace pipelayer {

int64_t
shapeNumel(const Shape &shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        PL_ASSERT(d >= 0, "negative extent %lld", (long long)d);
        n *= d;
    }
    return n;
}

std::string
shapeToString(const Shape &shape)
{
    std::ostringstream os;
    os << "(";
    for (size_t i = 0; i < shape.size(); ++i) {
        if (i)
            os << ", ";
        os << shape[i];
    }
    os << ")";
    return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(shapeNumel(shape_)), 0.0f)
{
}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(shapeNumel(shape_)), value)
{
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    PL_ASSERT(static_cast<int64_t>(data_.size()) == shapeNumel(shape_),
              "data size %zu does not match shape %s", data_.size(),
              shapeToString(shape_).c_str());
}

Tensor
Tensor::randn(Shape shape, Rng &rng, float mean, float stddev)
{
    Tensor t(std::move(shape));
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data_[static_cast<size_t>(i)] =
            static_cast<float>(rng.gaussian(mean, stddev));
    return t;
}

float &
Tensor::operator()(int64_t i)
{
    PL_ASSERT(rank() == 1, "1-D access on rank-%lld tensor",
              (long long)rank());
    return at(i);
}

float
Tensor::operator()(int64_t i) const
{
    PL_ASSERT(rank() == 1, "1-D access on rank-%lld tensor",
              (long long)rank());
    return at(i);
}

int64_t
Tensor::flatIndex2(int64_t i, int64_t j) const
{
    PL_ASSERT(rank() == 2, "2-D access on rank-%lld tensor",
              (long long)rank());
    PL_ASSERT(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
              "index (%lld, %lld) out of range %s", (long long)i,
              (long long)j, shapeToString(shape_).c_str());
    return i * shape_[1] + j;
}

float &
Tensor::operator()(int64_t i, int64_t j)
{
    return data_[static_cast<size_t>(flatIndex2(i, j))];
}

float
Tensor::operator()(int64_t i, int64_t j) const
{
    return data_[static_cast<size_t>(flatIndex2(i, j))];
}

int64_t
Tensor::flatIndex3(int64_t c, int64_t y, int64_t x) const
{
    PL_ASSERT(rank() == 3, "3-D access on rank-%lld tensor",
              (long long)rank());
    PL_ASSERT(c >= 0 && c < shape_[0] && y >= 0 && y < shape_[1] &&
              x >= 0 && x < shape_[2],
              "index (%lld, %lld, %lld) out of range %s", (long long)c,
              (long long)y, (long long)x, shapeToString(shape_).c_str());
    return (c * shape_[1] + y) * shape_[2] + x;
}

float &
Tensor::operator()(int64_t c, int64_t y, int64_t x)
{
    return data_[static_cast<size_t>(flatIndex3(c, y, x))];
}

float
Tensor::operator()(int64_t c, int64_t y, int64_t x) const
{
    return data_[static_cast<size_t>(flatIndex3(c, y, x))];
}

int64_t
Tensor::flatIndex4(int64_t a, int64_t b, int64_t c, int64_t d) const
{
    PL_ASSERT(rank() == 4, "4-D access on rank-%lld tensor",
              (long long)rank());
    PL_ASSERT(a >= 0 && a < shape_[0] && b >= 0 && b < shape_[1] &&
              c >= 0 && c < shape_[2] && d >= 0 && d < shape_[3],
              "index (%lld, %lld, %lld, %lld) out of range %s",
              (long long)a, (long long)b, (long long)c, (long long)d,
              shapeToString(shape_).c_str());
    return ((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d;
}

float &
Tensor::operator()(int64_t a, int64_t b, int64_t c, int64_t d)
{
    return data_[static_cast<size_t>(flatIndex4(a, b, c, d))];
}

float
Tensor::operator()(int64_t a, int64_t b, int64_t c, int64_t d) const
{
    return data_[static_cast<size_t>(flatIndex4(a, b, c, d))];
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

Tensor
Tensor::reshape(Shape new_shape) const
{
    PL_ASSERT(shapeNumel(new_shape) == numel(),
              "reshape %s -> %s changes element count",
              shapeToString(shape_).c_str(),
              shapeToString(new_shape).c_str());
    return Tensor(std::move(new_shape), data_);
}

// y + 1·x is y + x, and y + (−1·x) is y − x, for every float: the
// kernels' multiply-then-add gives the plain loops' bits.
Tensor &
Tensor::operator+=(const Tensor &other)
{
    PL_ASSERT(numel() == other.numel(), "shape mismatch in +=");
    gemmk::activeKernels().axpy_f32(data(), other.data(), 1.0f, numel());
    return *this;
}

Tensor &
Tensor::operator-=(const Tensor &other)
{
    PL_ASSERT(numel() == other.numel(), "shape mismatch in -=");
    gemmk::activeKernels().axpy_f32(data(), other.data(), -1.0f, numel());
    return *this;
}

Tensor &
Tensor::operator*=(float scalar)
{
    gemmk::activeKernels().scale_f32(data(), data(), scalar, numel());
    return *this;
}

Tensor
Tensor::operator+(const Tensor &other) const
{
    Tensor out = *this;
    out += other;
    return out;
}

Tensor
Tensor::operator-(const Tensor &other) const
{
    Tensor out = *this;
    out -= other;
    return out;
}

Tensor
Tensor::hadamard(const Tensor &other) const
{
    PL_ASSERT(numel() == other.numel(), "shape mismatch in hadamard");
    Tensor out = *this;
    for (size_t i = 0; i < out.data_.size(); ++i)
        out.data_[i] *= other.data_[i];
    return out;
}

double
Tensor::sum() const
{
    double s = 0.0;
    for (float v : data_)
        s += v;
    return s;
}

int64_t
Tensor::argmax() const
{
    PL_ASSERT(numel() > 0, "argmax of empty tensor");
    int64_t best = 0;
    for (int64_t i = 1; i < numel(); ++i) {
        if (data_[static_cast<size_t>(i)] > data_[static_cast<size_t>(best)])
            best = i;
    }
    return best;
}

} // namespace pipelayer
