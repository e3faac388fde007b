// Fixture: the validated parse helpers are the one place raw numeric
// parsing is allowed.
#include <string>

int
parseWidth(const std::string &arg)
{
    return std::stoi(arg);
}
