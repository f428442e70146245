#pragma once

#include <cstdint>

/// \file server_stats.hpp
/// The daemon's aggregate request counters — shared vocabulary between
/// the server (which accumulates them in sharded slabs, stat_slabs.hpp)
/// and the stats frame (serialize.hpp's `StatsWire`).

namespace optdm::svc {

/// Aggregate daemon counters; the stats frame serializes these (plus
/// engine cache totals and latency percentiles) as `StatsWire`.
struct ServerStats {
  std::int64_t requests = 0;    ///< work frames accepted off the wire
  std::int64_t compiles = 0;    ///< compile requests executed
  std::int64_t simulates = 0;   ///< simulate requests executed
  std::int64_t ok = 0;          ///< responses that carried a result
  std::int64_t failed = 0;      ///< error responses (any code)
  std::int64_t rejected_queue_full = 0;  ///< subset of failed: queue-full
  /// Compile + simulate runs that completed in the engine (the wire name
  /// predates report-on-demand: each used to emit a RunReport).
  std::int64_t reports_emitted = 0;
};

}  // namespace optdm::svc
