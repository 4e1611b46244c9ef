#include "sim/sweep.h"

#include "util/thread_pool.h"

namespace rrs {

std::vector<std::vector<std::string>> run_sweep(
    const std::vector<std::function<std::vector<std::string>()>>& cells) {
  std::vector<std::vector<std::string>> rows(cells.size());
  parallel_for(cells.size(), [&](std::size_t i) { rows[i] = cells[i](); });
  return rows;
}

}  // namespace rrs
