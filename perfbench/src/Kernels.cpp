//===- perfbench/src/Kernels.cpp ------------------------------------------===//

#include "Kernels.h"

#include "Common.h"
#include "Inputs.h"

#include "sexpr/Printer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace s1lisp;
using sexpr::Value;

namespace perfbench {

namespace {

int64_t fib(int64_t N) {
  int64_t A = 0, B = 1;
  for (int64_t I = 0; I < N; ++I) {
    int64_t C = A + B;
    A = B;
    B = C;
  }
  return A;
}

int64_t tak(int64_t X, int64_t Y, int64_t Z) {
  return Y < X ? tak(tak(X - 1, Y, Z), tak(Y - 1, Z, X), tak(Z - 1, X, Y)) : Z;
}

std::string printed(double D) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%.17g", D);
  return Buf;
}

// The heap budget of the examples/gc kernels: small next to what each
// call allocates, so every call collects several times.
constexpr uint64_t GcBudget = 256 << 10;

} // namespace

bool sameNumber(const std::string &Printed, const std::string &Expected) {
  char *End = nullptr;
  double A = std::strtod(Printed.c_str(), &End);
  if (End == Printed.c_str())
    return false;
  double B = std::strtod(Expected.c_str(), nullptr);
  return std::fabs(A - B) <= 1e-12 * std::max(1.0, std::fabs(B));
}

bool Kernel::check(Value Result) const {
  std::string P = sexpr::toString(Result);
  return P == Expected || (Result.isFlonum() && sameNumber(P, Expected));
}

std::vector<Kernel> runKernels(uint64_t Seed) {
  Rng R(Seed * 7368787 + 3);
  auto Fx = [](int64_t N) { return Value::fixnum(N); };
  std::vector<Kernel> K;

  K.push_back({"fib",
               "(defun fib (n)"
               "  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
               "fib", {Fx(20)}, 0, std::to_string(fib(20))});

  // fib, TAK and append-reverse (cubic in n) keep fixed arguments: one
  // step of any changes the work by a fifth or more, so seeded arguments
  // would make the run's cost the seed's. The other kernels take seeded
  // arguments in a band of about 2% of their work.
  const int64_t T[3] = {18, 12, 6};
  K.push_back({"tak",
               "(defun tak (x y z)"
               "  (if (< y x)"
               "      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))"
               "      z))",
               "tak", {Fx(T[0]), Fx(T[1]), Fx(T[2])}, 0,
               std::to_string(tak(T[0], T[1], T[2]))});

  int64_t N = R.range(40000, 41000);
  K.push_back({"loop",
               "(defun loop-sum (n)"
               "  (let ((s 0)) (dotimes (i n) (setq s (+ s i))) s))",
               "loop-sum", {Fx(N)}, 0, std::to_string(N * (N - 1) / 2)});

  // (testfn a b c) is (sin$f (*$f a b c)); META-SIN-TO-SINC turns it into
  // the S-1 trig unit's sine of (*$f a b c 0.159154942) cycles, with the
  // paper's approximation to 1/2pi.
  double A = 0.25 + R.range(0, 1000) / 4000.0, B = 2.0, C = 8.0;
  K.push_back({"testfn", readFile("examples/testfn.lisp"), "testfn",
               {Value::flonum(A), Value::flonum(B), Value::flonum(C)}, 0,
               printed(std::sin(((A * B) * C) * 0.159154942 * 2.0 * M_PI))});

  // The closed forms are the ones the example files state.
  const int64_t Ar = 33;
  K.push_back({"append-reverse", readFile("examples/gc/append-reverse.lisp"),
               "append-reverse-workload", {Fx(Ar)}, GcBudget,
               std::to_string(Ar * (Ar * (Ar + 1) / 2))});
  int64_t As = R.range(900, 910);
  K.push_back({"assoc", readFile("examples/gc/assoc.lisp"), "alist-workload",
               {Fx(As)}, GcBudget,
               std::to_string(As * (As - 1) * (2 * As - 1) / 6)});
  int64_t Mc = R.range(700, 715);
  K.push_back({"map-chain", readFile("examples/gc/map-chain.lisp"),
               "map-chain-workload", {Fx(Mc)}, GcBudget,
               std::to_string(3 * (Mc * (Mc - 1) * (2 * Mc - 1) / 6 + Mc))});
  return K;
}

} // namespace perfbench
