// Parallel sweeps over a process-wide worker pool.
//
// Simulation runs themselves are single-threaded (a discrete-event loop is
// inherently sequential), but benches sweep parameters across many
// independent runs; parallel_for distributes those runs over hardware
// threads. On a single-core host it degrades gracefully to inline
// execution. parallel_for and parallel_map are the whole interface: the
// pool behind them is an implementation detail of thread_pool.cpp.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace uap2p {

/// Runs fn(i) for i in [0, n), spread over the shared process pool
/// (`threads` caps the concurrency; 0 means hardware_concurrency). The
/// pool is created on first use and joined at process exit. Exceptions
/// from any iteration are rethrown (first one wins). Iteration order is
/// unspecified; fn must be safe to run concurrently with itself. Runs
/// inline when threads <= 1 or when called from inside another
/// parallel_for's fn, on a pool worker or on the calling thread alike
/// (nested parallelism degrades to sequential instead of deadlocking).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

/// parallel_for with an index-ordered gather: results[i] = fn(i) regardless
/// of which worker ran which index or in what order they finished. This is
/// the determinism contract the bench trial harness builds on — consumers
/// see results exactly as a serial loop would have produced them.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, std::size_t threads = 0)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(std::is_default_constructible_v<R>,
                "parallel_map gathers into a pre-sized vector");
  std::vector<R> results(n);
  parallel_for(
      n, [&](std::size_t i) { results[i] = fn(i); }, threads);
  return results;
}

}  // namespace uap2p
