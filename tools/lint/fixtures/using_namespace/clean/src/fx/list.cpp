// Fixture: a using-directive in a source file reaches no includer.
#include <vector>

using namespace std;

vector<int>
emptyList()
{
    return {};
}
