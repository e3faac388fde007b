// Fixture: streaming values, never addresses, keeps output
// byte-comparable.
#include <cstdio>
#include <iostream>

void
debugDump(int value, const int *slot)
{
    std::cout << value << " " << *slot << "\n";
    std::printf("%d\n", value);
}
