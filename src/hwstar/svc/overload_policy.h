#ifndef HWSTAR_SVC_OVERLOAD_POLICY_H_
#define HWSTAR_SVC_OVERLOAD_POLICY_H_

#include <cstdint>

#include "hwstar/svc/request.h"

namespace hwstar::svc {

/// The load signals a policy decides on. Sampled from the service at
/// admission time and at batch-execution start.
struct OverloadSignals {
  uint32_t queue_depth = 0;
  uint32_t max_queue_depth = 0;  ///< 0 = unbounded
  uint64_t queued_bytes = 0;
  uint32_t in_flight = 0;  ///< admitted but not yet completed

  /// Queue fullness in [0, 1]; 0 when the queue is unbounded (an
  /// unbounded queue gives the policy nothing to react to — which is
  /// exactly why the baseline without admission control collapses).
  double utilization() const {
    if (max_queue_depth == 0) return 0.0;
    const double u =
        static_cast<double>(queue_depth) / static_cast<double>(max_queue_depth);
    return u > 1.0 ? 1.0 : u;
  }
};

/// Pluggable graceful degradation: under load, shrink work before
/// shedding it, and shed the least important work first. Implementations
/// must be thread-safe (const methods, called concurrently).
class OverloadPolicy {
 public:
  virtual ~OverloadPolicy() = default;

  /// Effective scan row limit for a scan requesting `requested` rows
  /// (0 = unlimited). Return `requested` to leave it untouched.
  virtual uint64_t ScanLimit(const OverloadSignals& signals,
                             uint64_t requested) const {
    (void)signals;
    return requested;
  }

  /// Lowest priority still admitted; requests below it are shed at the
  /// door (drop the lowest-priority tenants first).
  virtual Priority MinAdmittedPriority(const OverloadSignals& signals) const {
    (void)signals;
    return Priority::kLow;
  }
};

/// Default policy: degrade in steps as the admission queue fills.
///  - past `scan_clamp_at` utilization, scans are clamped to
///    `scan_limit_under_load` rows;
///  - past `drop_low_at`, kLow-priority requests are rejected at
///    admission.
class StepDownOverloadPolicy : public OverloadPolicy {
 public:
  uint64_t scan_limit_under_load = 1024;
  double scan_clamp_at = 0.5;
  double drop_low_at = 0.9;

  uint64_t ScanLimit(const OverloadSignals& signals,
                     uint64_t requested) const override {
    if (signals.utilization() < scan_clamp_at) return requested;
    if (requested == 0) return scan_limit_under_load;
    return requested < scan_limit_under_load ? requested
                                             : scan_limit_under_load;
  }

  Priority MinAdmittedPriority(const OverloadSignals& signals) const override {
    return signals.utilization() >= drop_low_at ? Priority::kNormal
                                                : Priority::kLow;
  }
};

}  // namespace hwstar::svc

#endif  // HWSTAR_SVC_OVERLOAD_POLICY_H_
