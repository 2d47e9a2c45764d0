#ifndef LAFP_DATAFRAME_ARITH_SEMANTICS_H_
#define LAFP_DATAFRAME_ARITH_SEMANTICS_H_

#include <cmath>
#include <cstdint>

namespace lafp::df {

// Scalar arithmetic semantics shared by the column kernels and the
// PdScript interpreter: NumPy int64 wraparound and Python/pandas floored
// modulo. Centralized so the engine kernels and script-level scalar
// folding can never drift apart.

/// int64 add with NumPy's two's-complement wraparound. Signed overflow is
/// UB in C++; the unsigned round trip is defined and (since C++20 mandates
/// two's complement) produces exactly the bits NumPy stores.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

/// abs with NumPy semantics: abs(INT64_MIN) wraps back to INT64_MIN
/// (std::abs would be UB there).
inline int64_t WrapAbs(int64_t a) { return a < 0 ? WrapSub(0, a) : a; }

/// Python/pandas floored modulo for int64: the result takes the divisor's
/// sign (-7 % 3 == 2, 7 % -3 == -2). NumPy's int64 x % 0 is 0 (with a
/// RuntimeWarning we do not model), and INT64_MIN % -1 is 0 — the b == -1
/// early-out also sidesteps the hardware trap on INT64_MIN / -1.
inline int64_t FlooredModInt(int64_t a, int64_t b) {
  if (b == 0 || b == -1) return 0;
  int64_t r = a % b;
  // |r| < |b|, so the adjustment cannot overflow.
  if (r != 0 && ((r < 0) != (b < 0))) r += b;
  return r;
}

/// Python/pandas floored modulo for doubles: fmod adjusted so the result
/// takes the divisor's sign; an exactly-zero result carries the divisor's
/// sign bit (6.0 % -3.0 == -0.0). x % 0.0, inf % y and NaN operands all
/// yield NaN via fmod and pass through the adjustment unchanged.
inline double FlooredModDouble(double a, double b) {
  double r = std::fmod(a, b);
  if (r != 0.0) {
    if ((r < 0.0) != (b < 0.0)) r += b;
  } else {
    r = std::copysign(0.0, b);
  }
  return r;
}

}  // namespace lafp::df

#endif  // LAFP_DATAFRAME_ARITH_SEMANTICS_H_
