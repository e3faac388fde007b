// Fixture: std::random_device is a per-run entropy source; results
// seeded from it can never be byte-compared across machines. The C
// library's rand() is one too, however it is qualified, and an
// environment variable is an input no report records.
#include <cstdlib>
#include <random>

unsigned
pickSeed()
{
    std::random_device rd;
    return rd();
}

int
rollTwice()
{
    std::srand(7);
    int a = std::rand();
    int b = ::rand();
    return a + b;
}

bool
verbose()
{
    return std::getenv("CAPSTAN_VERBOSE") != nullptr;
}
