// Fixture: malformed allow-comments. Suppressions must say WHY the
// flagged line is safe and name a class that can be suppressed, or
// they are findings themselves.
#include <map>

void
noop()
{
    // capstan-lint: allow(unordered-iter)
    std::map<int, int> ordered;
    // capstan-lint: allow(no-such-class) -- names no class
    // capstan-lint: allow(stale-suppression) -- the suppression
    // classes cannot themselves be suppressed
    (void)ordered;
}
