// Discrete PID controller (§3.3, eq. 1):
//   u(t) = Kp e(t) + Ki ∫ e dτ + Kd de/dt
// with the Ziegler–Nichols [19] tuning rules the paper references. The
// feedback scheduler samples once per 20-second interval.

#ifndef SOAP_CORE_PID_CONTROLLER_H_
#define SOAP_CORE_PID_CONTROLLER_H_

#include <optional>

namespace soap::core {

struct PidGains {
  double kp = 1.0;
  double ki = 0.0;
  double kd = 0.0;
};

/// Ziegler–Nichols closed-loop tuning: given the ultimate gain Ku (the
/// proportional gain at which the loop oscillates steadily) and the
/// oscillation period Tu, produce gains for the chosen controller type.
struct ZieglerNichols {
  static PidGains P(double ku) { return {0.5 * ku, 0.0, 0.0}; }
  static PidGains PI(double ku, double tu) {
    return {0.45 * ku, 0.54 * ku / tu, 0.0};
  }
  static PidGains Classic(double ku, double tu) {
    return {0.6 * ku, 1.2 * ku / tu, 0.075 * ku * tu};
  }
};

/// Textbook discrete PID with optional output clamping and anti-windup
/// (integration pauses while the output saturates).
class PidController {
 public:
  explicit PidController(PidGains gains) : gains_(gains) {}

  void set_gains(PidGains gains) { gains_ = gains; }
  const PidGains& gains() const { return gains_; }

  /// Clamps the output to [lo, hi] and enables anti-windup.
  void SetOutputLimits(double lo, double hi);

  /// One control step: `error` = SP - PV, `dt` = seconds since the last
  /// step. Returns the controller output u.
  double Update(double error, double dt);

  void Reset();

  double integral() const { return integral_; }

  /// Individual terms of the last Update (pre-clamp decomposition of u):
  /// what the observability layer exports as soap_pid_{p,i,d}_term.
  double last_p_term() const { return last_p_; }
  double last_i_term() const { return last_i_; }
  double last_d_term() const { return last_d_; }
  double last_output() const { return last_output_; }

 private:
  PidGains gains_;
  double integral_ = 0.0;
  std::optional<double> last_error_;
  std::optional<double> out_lo_;
  std::optional<double> out_hi_;
  double last_p_ = 0.0;
  double last_i_ = 0.0;
  double last_d_ = 0.0;
  double last_output_ = 0.0;
};

}  // namespace soap::core

#endif  // SOAP_CORE_PID_CONTROLLER_H_
