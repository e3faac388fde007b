// thread-escape clean fixture: per-call workers only touch their own
// subscripted slot and purely local state. Threads kept in a member
// vector are long-lived service threads that synchronize explicitly,
// so their lambdas are not worker lambdas.
#include <thread>
#include <vector>

class Accumulator {
 public:
  void runAll();
  void serve();

 private:
  std::vector<long> slots_;
  std::vector<std::thread> readers_;
  long served_ = 0;
};

void Accumulator::runAll() {
  std::vector<std::thread> helpers;
  for (int w = 0; w < 4; ++w) {
    helpers.emplace_back([this, w] {
      long x = 0;
      x += w;
      slots_[w] += x;
    });
  }
  for (auto &t : helpers)
    t.join();
}

void Accumulator::serve() {
  readers_.emplace_back([this] { served_ += 1; });
}
