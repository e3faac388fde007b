// Fixture: a fixed-seed engine draws the same numbers on every run,
// and a rand() in another namespace is not the C library's.
#include <random>

unsigned
fixedSeedDraw()
{
    std::mt19937 rng(1234);
    return static_cast<unsigned>(rng());
}

int
rollDie()
{
    return dice::rand(6);
}
