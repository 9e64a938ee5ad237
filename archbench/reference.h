// Host-speed reference: a fixed, benchmark-owned compute kernel timed
// beside every public call the benchmark makes.
//
// On a shared host the core this process runs on is sometimes shared with
// another tenant's work, and then throughput-bound code (hashing, bignum
// arithmetic, GF kernels) runs up to ~1.8x slower for seconds to minutes
// at a time. A kernel of the same kind, timed right before and right
// after a call, slows down with it. Scaling each call's wall time by
// kReferenceNominalUs / (reference time measured around the call) turns
// it into the time the call would have taken on an unshared core.
//
// The kernel lives in its own library, built with fixed flags and no
// dependency on the archive library, so no change to the code under test
// can change it.
#pragma once

namespace archbench {

/// The reference kernel's time on an unshared core of the host the
/// benchmark was calibrated on (a 4-vCPU x86_64 VM); scaled times are
/// "ms at this speed".
inline constexpr double kReferenceNominalUs = 18.0;

/// Wall time in microseconds of one reference measurement: the median of
/// a few back-to-back runs of the kernel, so that one run cut by a
/// preemption does not skew it.
double reference_us();

}  // namespace archbench
