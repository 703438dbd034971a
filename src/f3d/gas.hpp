// Perfect-gas thermodynamics and flow-state conversions.
//
// Nondimensionalization follows the usual external-aerodynamics convention:
// free-stream density rho_inf = 1, free-stream sound speed a_inf = 1, so
// free-stream pressure p_inf = 1/gamma and velocity magnitude = Mach number.
//
// Conservative state vector (what the solver stores):
//   Q = [rho, rho*u, rho*v, rho*w, E],  E = p/(gamma-1) + rho*q^2/2.
#pragma once

#include <cmath>

#include "util/error.hpp"

namespace f3d {

inline constexpr int kNumVars = 5;
inline constexpr double kGamma = 1.4;

/// Primitive state at a point.
struct Prim {
  double rho = 1.0;
  double u = 0.0;
  double v = 0.0;
  double w = 0.0;
  double p = 1.0 / kGamma;
};

/// Pressure from a conservative state.
inline double pressure(const double q[kNumVars]) {
  const double rho = q[0];
  const double ke = 0.5 * (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / rho;
  return (kGamma - 1.0) * (q[4] - ke);
}

/// Sound speed from a conservative state and its pressure p = pressure(q).
inline double sound_speed(const double q[kNumVars], double p) {
  LLP_ASSERT(p > 0.0 && q[0] > 0.0);
  return std::sqrt(kGamma * p / q[0]);
}

/// Sound speed from a conservative state.
inline double sound_speed(const double q[kNumVars]) {
  return sound_speed(q, pressure(q));
}

/// Conservative -> primitive.
inline Prim to_prim(const double q[kNumVars]) {
  Prim s;
  s.rho = q[0];
  s.u = q[1] / q[0];
  s.v = q[2] / q[0];
  s.w = q[3] / q[0];
  s.p = pressure(q);
  return s;
}

/// Primitive -> conservative.
inline void to_conservative(const Prim& s, double q[kNumVars]) {
  q[0] = s.rho;
  q[1] = s.rho * s.u;
  q[2] = s.rho * s.v;
  q[3] = s.rho * s.w;
  q[4] = s.p / (kGamma - 1.0) +
         0.5 * s.rho * (s.u * s.u + s.v * s.v + s.w * s.w);
}

/// Free-stream definition: Mach number and flow angles (degrees).
/// alpha pitches the velocity into +y, beta yaws it into +z.
struct FreeStream {
  double mach = 2.0;
  double alpha_deg = 0.0;
  double beta_deg = 0.0;

  Prim prim() const {
    const double a = alpha_deg * M_PI / 180.0;
    const double b = beta_deg * M_PI / 180.0;
    Prim s;
    s.rho = 1.0;
    s.p = 1.0 / kGamma;  // a_inf = 1
    s.u = mach * std::cos(a) * std::cos(b);
    s.v = mach * std::sin(a) * std::cos(b);
    s.w = mach * std::sin(b);
    return s;
  }

  void conservative(double q[kNumVars]) const { to_conservative(prim(), q); }
};

/// Inviscid flux vector in direction dir (0=x, 1=y, 2=z) of a state whose
/// pressure p = pressure(q) and normal velocity vel = q[1+dir]/q[0] are
/// already known.
inline void flux(int dir, const double q[kNumVars], double p, double vel,
                 double f[kNumVars]) {
  f[0] = q[1 + dir];
  f[1] = q[1] * vel;
  f[2] = q[2] * vel;
  f[3] = q[3] * vel;
  f[1 + dir] += p;
  f[4] = (q[4] + p) * vel;
}

/// Inviscid flux vector in direction dir (0=x, 1=y, 2=z).
inline void flux(int dir, const double q[kNumVars], double f[kNumVars]) {
  flux(dir, q, pressure(q), q[1 + dir] / q[0], f);
}

/// Spectral radius of the flux Jacobian in direction dir: |u_n| + c.
inline double spectral_radius(int dir, const double q[kNumVars]) {
  return std::abs(q[1 + dir] / q[0]) + sound_speed(q);
}

}  // namespace f3d
