// Fixture: idiomatic clean code — ordered containers for anything that
// reaches output, unordered ones only for lookups.
#include <cstdio>
#include <map>
#include <unordered_map>

void
emitSorted()
{
    // Lookups into an unordered container are fine; only iteration
    // exposes bucket order.
    std::unordered_map<int, int> cache_;
    cache_[1] = 2;
    auto it = cache_.find(1);
    if (it != cache_.end())
        it->second += 1;

    std::map<int, int> ordered;
    ordered[1] = 2;
    for (const auto &[k, v] : ordered)
        std::printf("%d=%d\n", k, v);
}
