// stale-suppression clean fixture: both allow comments below absorb a
// live finding, so neither is stale.
#include <cstdlib>

namespace common {
struct WorkerPool {
  template <typename F>
  void run(int n, F f);
};
}  // namespace common

class StaleClean {
 public:
  void runAll();

 private:
  common::WorkerPool *pool_ = nullptr;
  long total_ = 0;
};

void StaleClean::runAll() {
  // capstan-lint: allow(nondet-source) -- fixture: the seed is fixed
  srand(42);
  pool_->run(2, [this](int w) {
    // capstan-lint: allow(thread-escape) -- fixture: pool size is one here
    total_ += w;
  });
}
