#include "common/mutex.hpp"

#if QKDPP_LOCK_RANK_CHECKS_ENABLED

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace qkdpp::detail {

namespace {

struct HeldLock {
  int rank;
  const char* name;
};

// Per-thread stack of held locks. A vector (not a fixed array) so deep
// helper-thread call chains can't overflow it; the handful of heap
// allocations per thread lifetime is irrelevant in the debug builds this
// compiles into.
thread_local std::vector<HeldLock> t_held;

}  // namespace

void rank_acquire(int rank, const char* name) {
  for (const HeldLock& held : t_held) {
    if (held.rank <= rank) {
      // Deliberately fprintf+abort instead of a throw: an exception would
      // let a real deadlock escape the test that provoked it.
      std::fprintf(stderr,
                   "qkdpp lock-rank violation: acquiring \"%s\" (rank %d) "
                   "while holding \"%s\" (rank %d); a lock may only be "
                   "acquired when its rank is strictly below every held "
                   "rank\n",
                   name, rank, held.name, held.rank);
      std::abort();
    }
  }
  t_held.push_back(HeldLock{rank, name});
}

void rank_release(int rank, const char* name) noexcept {
  // Unlock order need not be LIFO (std::unique_lock-style early release),
  // so remove the most recent matching entry rather than popping the top.
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->rank == rank && it->name == name) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
  std::fprintf(stderr,
               "qkdpp lock-rank violation: releasing \"%s\" (rank %d) which "
               "this thread does not hold\n",
               name, rank);
  std::abort();
}

}  // namespace qkdpp::detail

#endif  // QKDPP_LOCK_RANK_CHECKS_ENABLED
