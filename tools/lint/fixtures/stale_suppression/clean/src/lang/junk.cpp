// stale-suppression clean fixture: both allow comments below absorb a
// live finding, so neither is stale.
#include <cstdlib>
#include <thread>
#include <vector>

class StaleClean {
 public:
  void runAll();

 private:
  long total_ = 0;
};

void StaleClean::runAll() {
  // capstan-lint: allow(nondet-source) -- fixture: the seed is fixed
  srand(42);
  std::vector<std::thread> helpers;
  helpers.emplace_back([this] {
    // capstan-lint: allow(thread-escape) -- fixture: one worker here
    total_ += 1;
  });
  for (auto &t : helpers)
    t.join();
}
