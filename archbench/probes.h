// Layer probes for the traced run: each times one lower layer's public
// function on the workload's own generated objects, with the workload's
// geometry and cipher, inside a benchmark-owned trace span. A probe runs
// only on a workload whose policy uses its layer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "archive/policy.h"
#include "crypto/scheme.h"
#include "obs/trace.h"
#include "util/bytes.h"

namespace archbench {

struct ProbeInputs {
  std::vector<aegis::Bytes> objects;  // a prefix of the workload's objects
  /// The workload's policy: its encoding, geometry, channel and stamps
  /// choose which probes run and on what.
  aegis::ArchivalPolicy policy;
  /// Ciphers one logical byte passes through in the workload (a
  /// re-encryption decrypts under the old and encrypts under the new).
  std::vector<aegis::SchemeId> ciphers;
  std::uint64_t seed = 1;
};

/// Runs the probes that apply to the workload; returns (metric name,
/// value) pairs for those only. Spans are named `<span_prefix>probe.<layer>`.
std::vector<std::pair<std::string, double>> run_probes(
    const ProbeInputs& in, aegis::Tracer& tracer,
    const std::string& span_prefix);

}  // namespace archbench
