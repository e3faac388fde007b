// thread-escape bad fixture: the worker lambda, started by name on
// per-call helper threads, writes a reference-captured local and calls
// a member function that writes unsubscripted shared members.
#include <thread>
#include <vector>

class Accumulator {
 public:
  void runAll();

 private:
  void addSlow(int v);

  long total_ = 0;
  std::vector<int> vals_;
};

void Accumulator::addSlow(int v) {
  total_ += v;
  vals_.push_back(v);
}

void Accumulator::runAll() {
  int local = 0;
  auto work = [&] {
    local += 1;
    addSlow(1);
  };
  std::vector<std::thread> helpers;
  for (int w = 1; w < 4; ++w)
    helpers.emplace_back(work);
  work();
  for (auto &t : helpers)
    t.join();
}
