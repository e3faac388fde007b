// stale-suppression bad fixture: both allow comments below suppress
// nothing — the hazards they describe are gone.

// capstan-lint: allow(nondet-source) -- claims a rand() call that was removed
int answer() { return 42; }

// capstan-lint: allow(thread-escape) -- claims a worker dispatch that was removed
int other() { return 7; }
