// Parallel parameter sweeps for the benchmark harness.
//
// A sweep is a list of independent cells, each producing one table row;
// cells run across the shared process-wide thread pool (global_pool(),
// sized once via RRS_THREADS or the hardware; each cell owns its own
// seeded generators, so parallel execution is deterministic) and rows
// come back in cell order regardless of completion order.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace rrs {

/// Runs `cells` (each returning one row) in parallel; returns rows in
/// input order.
[[nodiscard]] std::vector<std::vector<std::string>> run_sweep(
    const std::vector<std::function<std::vector<std::string>()>>& cells);

}  // namespace rrs
