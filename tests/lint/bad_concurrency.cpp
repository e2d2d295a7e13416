// photherm_lint fixture: the concurrency rule MUST fire on this file.
//
// The inline lambda handed to parallel_for captures the enclosing locals by
// reference and mutates them without partitioning by the loop index:
// concurrent iterations race on `sum` and `hot`, and the result depends on
// the interleaving. Fixtures are scanned, not compiled.

#include <cstddef>
#include <vector>

namespace photherm {

inline double hot_cell_average(util::ThreadPool& pool, const std::vector<double>& cells) {
  double sum = 0.0;
  std::size_t hot = 0;
  util::parallel_for(pool, cells.size(), [&](std::size_t i) {
    if (cells[i] > 350.0) {
      ++hot;  // racy read-modify-write of a by-reference capture
    }
    sum += cells[i];  // ditto: not partitioned by i
  });
  return sum / static_cast<double>(hot);
}

inline void drain(util::ThreadPool& pool, std::vector<double>& queue, double& last_seen) {
  pool.submit([&last_seen, &queue] {
    last_seen = queue.back();  // explicit &-capture written from the pool thread
  });
}

// The math kernels' dispatch helpers run their chunks on the pool too.
inline double peak_and_total(const std::vector<double>& cells, double& peak) {
  util::kernel_for(cells.size(), [&](std::size_t begin, std::size_t end) {
    peak = cells[begin];  // every chunk writes the one shared result
  });
  double last = 0.0;
  return util::kernel_reduce(
      cells.size(), 0.0,
      [&](std::size_t begin, std::size_t end) {
        last = cells[end - 1];  // ditto, from a reduction's chunk
        return cells[begin];
      },
      [](double acc, double p) { return acc + p; });
}

}  // namespace photherm
